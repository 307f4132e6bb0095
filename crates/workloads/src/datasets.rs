//! The twelve dataset stand-ins (paper Table 1).

use hcl_graph::{connectivity, generate, CsrGraph};

/// Network category from Table 1; decides which generator is used.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetworkType {
    /// Computer / internet-topology networks (Skitter, ClueWeb09).
    Computer,
    /// Social networks and wikis.
    Social,
    /// Web crawls (Indochina, it2004, uk2007).
    Web,
}

impl NetworkType {
    /// Table 1's `Type` column text.
    pub fn as_str(&self) -> &'static str {
        match self {
            NetworkType::Computer => "computer",
            NetworkType::Social => "social",
            NetworkType::Web => "web",
        }
    }
}

/// One dataset row of Table 1, with its synthetic stand-in parameters.
#[derive(Clone, Debug)]
pub struct DatasetSpec {
    /// Dataset name as in the paper.
    pub name: &'static str,
    /// Network category.
    pub network_type: NetworkType,
    /// Vertex count of the real dataset.
    pub paper_n: u64,
    /// Edge count of the real dataset.
    pub paper_m: u64,
    /// Target average `m/n` (Table 1's density column), used as the
    /// generator's attachment/out-degree parameter.
    pub density: usize,
    /// Generation seed (fixed per dataset for reproducibility).
    pub seed: u64,
}

/// Default vertex count: paper size scaled down ~1000×, clamped to keep
/// every stand-in exercisable on one machine.
const MIN_N: u64 = 4_000;
const MAX_N: u64 = 400_000;

impl DatasetSpec {
    /// Vertex count of the stand-in at the given scale multiplier
    /// (`scale = 1.0` is the default ~1/1000 of the paper). Never below
    /// 16, nor below four times the density: both generators need more
    /// vertices than the attachment degree.
    pub fn scaled_n(&self, scale: f64) -> usize {
        let base = (self.paper_n / 1000).clamp(MIN_N, MAX_N) as f64;
        ((base * scale).round() as usize).max(16).max(4 * self.density)
    }

    /// Generates the stand-in graph and extracts its largest connected
    /// component (the paper's networks are used as connected undirected
    /// graphs). Deterministic for a fixed `(self, scale)`.
    pub fn generate(&self, scale: f64) -> CsrGraph {
        let n = self.scaled_n(scale);
        let g = match self.network_type {
            NetworkType::Social | NetworkType::Computer => {
                generate::barabasi_albert(n, self.density.max(1), self.seed)
            }
            NetworkType::Web => generate::web_copying(n, self.density.max(1), 0.25, self.seed),
        };
        connectivity::largest_connected_component(&g).0
    }
}

/// All twelve Table 1 datasets, smallest to largest as in the paper.
pub fn all_datasets() -> Vec<DatasetSpec> {
    vec![
        DatasetSpec {
            name: "Skitter",
            network_type: NetworkType::Computer,
            paper_n: 1_700_000,
            paper_m: 11_000_000,
            density: 6,
            seed: 0xD5_01,
        },
        DatasetSpec {
            name: "Flickr",
            network_type: NetworkType::Social,
            paper_n: 1_700_000,
            paper_m: 16_000_000,
            density: 9,
            seed: 0xD5_02,
        },
        DatasetSpec {
            name: "Hollywood",
            network_type: NetworkType::Social,
            paper_n: 1_100_000,
            paper_m: 114_000_000,
            density: 49,
            seed: 0xD5_03,
        },
        DatasetSpec {
            name: "Orkut",
            network_type: NetworkType::Social,
            paper_n: 3_100_000,
            paper_m: 117_000_000,
            density: 38,
            seed: 0xD5_04,
        },
        DatasetSpec {
            name: "enwiki2013",
            network_type: NetworkType::Social,
            paper_n: 4_200_000,
            paper_m: 101_000_000,
            density: 22,
            seed: 0xD5_05,
        },
        DatasetSpec {
            name: "LiveJournal",
            network_type: NetworkType::Social,
            paper_n: 4_800_000,
            paper_m: 69_000_000,
            density: 9,
            seed: 0xD5_06,
        },
        DatasetSpec {
            name: "Indochina",
            network_type: NetworkType::Web,
            paper_n: 7_400_000,
            paper_m: 194_000_000,
            density: 20,
            seed: 0xD5_07,
        },
        DatasetSpec {
            name: "it2004",
            network_type: NetworkType::Web,
            paper_n: 41_000_000,
            paper_m: 1_200_000_000,
            density: 25,
            seed: 0xD5_08,
        },
        DatasetSpec {
            name: "Twitter",
            network_type: NetworkType::Social,
            paper_n: 42_000_000,
            paper_m: 1_500_000_000,
            density: 29,
            seed: 0xD5_09,
        },
        DatasetSpec {
            name: "Friendster",
            network_type: NetworkType::Social,
            paper_n: 66_000_000,
            paper_m: 1_800_000_000,
            density: 22,
            seed: 0xD5_0A,
        },
        DatasetSpec {
            name: "uk2007",
            network_type: NetworkType::Web,
            paper_n: 106_000_000,
            paper_m: 3_700_000_000,
            density: 31,
            seed: 0xD5_0B,
        },
        DatasetSpec {
            name: "ClueWeb09",
            network_type: NetworkType::Computer,
            paper_n: 2_000_000_000,
            paper_m: 8_000_000_000,
            density: 6,
            seed: 0xD5_0C,
        },
    ]
}

/// Looks a dataset up by (case-insensitive) name.
pub fn dataset_by_name(name: &str) -> Option<DatasetSpec> {
    all_datasets().into_iter().find(|d| d.name.eq_ignore_ascii_case(name))
}

/// Scale multiplier from the `HCL_SCALE` environment variable (default 1.0).
pub fn scale_from_env() -> f64 {
    std::env::var("HCL_SCALE").ok().and_then(|s| s.parse().ok()).unwrap_or(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_twelve_paper_rows() {
        let all = all_datasets();
        assert_eq!(all.len(), 12);
        assert_eq!(all[0].name, "Skitter");
        assert_eq!(all[11].name, "ClueWeb09");
        // Unique names and seeds.
        let mut names: Vec<_> = all.iter().map(|d| d.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 12);
    }

    #[test]
    fn lookup_by_name() {
        assert!(dataset_by_name("skitter").is_some());
        assert!(dataset_by_name("UK2007").is_some());
        assert!(dataset_by_name("nope").is_none());
    }

    #[test]
    fn scaled_sizes_are_clamped_and_ordered() {
        let all = all_datasets();
        for d in &all {
            let n = d.scaled_n(1.0);
            assert!((4_000..=400_000).contains(&n), "{}: {n}", d.name);
        }
        // The paper's largest datasets stay the largest stand-ins.
        let n_of = |name: &str| dataset_by_name(name).unwrap().scaled_n(1.0);
        assert!(n_of("ClueWeb09") > n_of("Skitter"));
        assert!(n_of("uk2007") > n_of("Indochina"));
    }

    #[test]
    fn generated_standins_match_density_and_connectivity() {
        for d in all_datasets().iter().take(3) {
            let g = d.generate(0.25);
            assert!(hcl_graph::connectivity::is_connected(&g));
            let avg = g.avg_degree() / 2.0; // m/n
            let target = d.density as f64;
            assert!(
                avg > target * 0.5 && avg < target * 1.6,
                "{}: m/n = {avg:.1}, target {target}",
                d.name
            );
        }
    }

    #[test]
    fn every_standin_generates_at_toy_scale() {
        for d in all_datasets() {
            let n = d.scaled_n(0.01);
            assert!(n > d.density + 1, "{}: n = {n} at density {}", d.name, d.density);
            let g = d.generate(0.01);
            assert!(
                g.num_vertices() > 1 && hcl_graph::connectivity::is_connected(&g),
                "{}",
                d.name
            );
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let d = dataset_by_name("Flickr").unwrap();
        assert_eq!(d.generate(0.1), d.generate(0.1));
    }

    #[test]
    fn web_standins_use_copying_model() {
        let d = dataset_by_name("Indochina").unwrap();
        assert_eq!(d.network_type, NetworkType::Web);
        let g = d.generate(0.1);
        // Copying model produces heavy hubs.
        assert!(g.max_degree() > 5 * (g.avg_degree() as usize));
    }
}
