//! The pure merge logic of the router: splitting batches by shard
//! ownership, min-merging scattered answers, merging `STATS` bodies by
//! per-key aggregation class, and epoch agreement. Everything here is
//! deterministic and free of I/O so the routing semantics are
//! unit-testable without sockets.

use hcl_core::{PartitionMap, ShardRoute};
use hcl_graph::{VertexId, INF};
use hcl_server::metrics::{stat_class, StatClass};

/// One shard's slice of a client `BATCH`: the pairs it must answer and,
/// for each, the position in the client's response the answer feeds
/// (cross-shard pairs appear in two shards' slices and min-merge at the
/// shared position).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardBatch {
    /// The shard this slice goes to.
    pub shard: u32,
    /// `positions[i]` is the client-response index `pairs[i]` answers.
    pub positions: Vec<u32>,
    /// The pairs forwarded to this shard, in client order.
    pub pairs: Vec<(VertexId, VertexId)>,
}

/// Splits a client batch into per-shard sub-batches by
/// [`PartitionMap::route`]. Returns only non-empty slices, ordered by
/// shard id.
pub fn split_batch(map: &PartitionMap, pairs: &[(VertexId, VertexId)]) -> Vec<ShardBatch> {
    let mut slices: Vec<Option<ShardBatch>> = vec![None; map.num_shards() as usize];
    let mut push = |shard: u32, position: u32, pair: (VertexId, VertexId)| {
        let slice = slices[shard as usize].get_or_insert_with(|| ShardBatch {
            shard,
            positions: Vec::new(),
            pairs: Vec::new(),
        });
        slice.positions.push(position);
        slice.pairs.push(pair);
    };
    for (i, &(s, t)) in pairs.iter().enumerate() {
        match map.route(s, t) {
            ShardRoute::Single(a) => push(a, i as u32, (s, t)),
            ShardRoute::Scatter(a, b) => {
                push(a, i as u32, (s, t));
                push(b, i as u32, (s, t));
            }
        }
    }
    slices.into_iter().flatten().collect()
}

/// The `INF`-aware minimum of two scattered answers (`None` =
/// unreachable on that shard).
pub fn merge_min(a: Option<u32>, b: Option<u32>) -> Option<u32> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (x, y) => x.or(y),
    }
}

/// Accumulates one shard's `DISTS` answers into the client response
/// being assembled (`out` uses the raw [`INF`] sentinel for
/// unreachable-so-far).
pub fn fold_batch_answers(out: &mut [u32], positions: &[u32], answers: &[Option<u32>]) {
    debug_assert_eq!(positions.len(), answers.len());
    for (&pos, &d) in positions.iter().zip(answers) {
        let d = d.unwrap_or(INF);
        let slot = &mut out[pos as usize];
        *slot = (*slot).min(d);
    }
}

/// Converts an assembled sentinel vector back to the protocol's
/// `Option<u32>` form.
pub fn finish_batch(out: Vec<u32>) -> Vec<Option<u32>> {
    out.into_iter().map(|d| (d != INF).then_some(d)).collect()
}

/// Reports the deployment-wide epoch: `Ok` only when every responder
/// agrees, otherwise a one-line description of the divergence (labels
/// are responder names, e.g. `shard0`).
pub fn epoch_agreement(epochs: &[(String, u64)]) -> Result<u64, String> {
    let Some(&(_, first)) = epochs.first() else {
        return Err("no shards responded".to_string());
    };
    if epochs.iter().all(|(_, e)| *e == first) {
        Ok(first)
    } else {
        let detail: Vec<String> = epochs.iter().map(|(label, e)| format!("{label}={e}")).collect();
        Err(format!("shards at divergent epochs: {}", detail.join(" ")))
    }
}

/// Renders the router's verdict on a `RELOAD` fan-out: `RELOADED <e>`
/// only when **every** replica of every shard confirmed the same new
/// epoch (all-or-nothing confirmation); any failure or epoch divergence
/// yields one `ERR` line naming each responder's outcome.
pub fn reload_verdict(results: &[(String, Result<u64, String>)]) -> Result<u64, String> {
    let mut confirmed = Vec::with_capacity(results.len());
    let mut failures = Vec::new();
    for (label, outcome) in results {
        match outcome {
            Ok(epoch) => confirmed.push((label.clone(), *epoch)),
            Err(msg) => failures.push(format!("{label}: {msg}")),
        }
    }
    if failures.is_empty() {
        return epoch_agreement(&confirmed)
            .map_err(|divergence| format!("reload incomplete: {divergence}"));
    }
    let mut parts = failures;
    for (label, epoch) in confirmed {
        parts.push(format!("{label}: RELOADED {epoch}"));
    }
    Err(format!("reload incomplete: {}", parts.join("; ")))
}

/// One responder's labelled outcome in an `UPDATE` fan-out: the replica
/// label plus either its `(epoch, affected)` confirmation or its error.
pub type UpdateOutcome = (String, Result<(u64, u64), String>);

/// Renders the router's verdict on an `UPDATE` fan-out: `UPDATED <e> <a>`
/// only when **every** replica of every owning shard confirmed the edit
/// (all-or-nothing, like [`reload_verdict`]); any failure yields one
/// `ERR` line naming each responder's outcome. On success the reported
/// epoch is the fleet floor (owning shards may sit at different
/// generations) and the affected count is the fleet's worst case.
pub fn update_verdict(results: &[UpdateOutcome]) -> Result<(u64, u64), String> {
    let mut confirmed: Vec<(String, (u64, u64))> = Vec::with_capacity(results.len());
    let mut failures = Vec::new();
    for (label, outcome) in results {
        match outcome {
            Ok(pair) => confirmed.push((label.clone(), *pair)),
            Err(msg) => failures.push(format!("{label}: {msg}")),
        }
    }
    if failures.is_empty() {
        let Some(&(_, first)) = confirmed.first() else {
            return Err("update incomplete: no shards responded".to_string());
        };
        let epoch = confirmed.iter().map(|&(_, (e, _))| e).min().unwrap_or(first.0);
        let affected = confirmed.iter().map(|&(_, (_, a))| a).max().unwrap_or(first.1);
        return Ok((epoch, affected));
    }
    let mut parts = failures;
    for (label, (epoch, affected)) in confirmed {
        parts.push(format!("{label}: UPDATED {epoch} {affected}"));
    }
    Err(format!("update incomplete: {}", parts.join("; ")))
}

/// Merges shard `STATS` bodies (`key=value` pairs) into one body, each
/// key combined by its [`StatClass`] ([`stat_class`] looks it up in the
/// server's declarations). Key order follows the first body,
/// with stragglers appended; non-numeric values are passed through from
/// the first shard reporting them.
pub fn merge_stats_bodies(bodies: &[String]) -> String {
    struct Slot {
        key: String,
        acc: Option<u64>,
        raw: String,
    }
    let mut slots: Vec<Slot> = Vec::new();
    for body in bodies {
        for kv in body.split_ascii_whitespace() {
            let Some((key, value)) = kv.split_once('=') else { continue };
            let idx = match slots.iter().position(|s| s.key == key) {
                Some(idx) => idx,
                None => {
                    slots.push(Slot { key: key.to_string(), acc: None, raw: value.to_string() });
                    slots.len() - 1
                }
            };
            if let Ok(number) = value.parse::<u64>() {
                let slot = &mut slots[idx].acc;
                *slot = Some(match (*slot, stat_class(key)) {
                    (None, _) => number,
                    (Some(acc), StatClass::Sum) => acc.saturating_add(number),
                    (Some(acc), StatClass::Min) => acc.min(number),
                    (Some(acc), StatClass::Max) => acc.max(number),
                    (Some(acc), StatClass::First) => acc,
                });
            }
        }
    }
    let mut out = String::new();
    for slot in slots {
        if !out.is_empty() {
            out.push(' ');
        }
        match slot.acc {
            Some(total) => out.push_str(&format!("{}={total}", slot.key)),
            None => out.push_str(&format!("{}={}", slot.key, slot.raw)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map() -> PartitionMap {
        // 100 vertices, 2 range shards (0..50 | 50..100), landmarks 0 and 50.
        PartitionMap::range(100, 2, &[0, 50])
    }

    fn labelled(pairs: &[(&str, u64)]) -> Vec<(String, u64)> {
        pairs.iter().map(|(l, e)| (l.to_string(), *e)).collect()
    }

    #[test]
    fn split_batch_routes_and_duplicates_cross_shard_pairs() {
        let slices = split_batch(&map(), &[(1, 2), (60, 70), (1, 70), (0, 80), (3, 3)]);
        assert_eq!(slices.len(), 2);
        let s0 = &slices[0];
        let s1 = &slices[1];
        assert_eq!(s0.shard, 0);
        assert_eq!(s1.shard, 1);
        // Shard 0: same-shard (1,2), scatter half of (1,70), same-shard (3,3).
        assert_eq!(s0.pairs, vec![(1, 2), (1, 70), (3, 3)]);
        assert_eq!(s0.positions, vec![0, 2, 4]);
        // Shard 1: (60,70), scatter half of (1,70), landmark-endpoint (0,80).
        assert_eq!(s1.pairs, vec![(60, 70), (1, 70), (0, 80)]);
        assert_eq!(s1.positions, vec![1, 2, 3]);
    }

    #[test]
    fn split_batch_skips_unused_shards() {
        let slices = split_batch(&map(), &[(1, 2), (3, 4)]);
        assert_eq!(slices.len(), 1);
        assert_eq!(slices[0].shard, 0);
    }

    #[test]
    fn min_merge_handles_inf() {
        assert_eq!(merge_min(Some(3), Some(5)), Some(3));
        assert_eq!(merge_min(None, Some(5)), Some(5));
        assert_eq!(merge_min(Some(2), None), Some(2));
        assert_eq!(merge_min(None, None), None);
    }

    #[test]
    fn batch_fold_round_trips() {
        let mut out = vec![INF; 4];
        fold_batch_answers(&mut out, &[0, 2], &[Some(7), None]);
        fold_batch_answers(&mut out, &[1, 2, 3], &[Some(1), Some(9), None]);
        // Position 2 got None from one shard and 9 from the other.
        assert_eq!(finish_batch(out), vec![Some(7), Some(1), Some(9), None]);
    }

    #[test]
    fn epoch_agreement_requires_unanimity() {
        assert_eq!(epoch_agreement(&labelled(&[("shard0", 3), ("shard1", 3)])), Ok(3));
        let err = epoch_agreement(&labelled(&[("shard0", 3), ("shard1", 4)])).unwrap_err();
        assert!(err.contains("shard0=3") && err.contains("shard1=4"), "{err}");
        assert!(epoch_agreement(&[]).is_err());
    }

    #[test]
    fn reload_verdict_is_all_or_nothing() {
        let ok = |l: &str, e: u64| (l.to_string(), Ok(e));
        let bad = |l: &str, m: &str| (l.to_string(), Err(m.to_string()));
        assert_eq!(reload_verdict(&[ok("shard0", 2), ok("shard1", 2)]), Ok(2));
        let err = reload_verdict(&[ok("shard0", 2), bad("shard1", "no such file")]).unwrap_err();
        assert!(err.contains("shard1: no such file"), "{err}");
        assert!(err.contains("shard0: RELOADED 2"), "{err}");
        let err = reload_verdict(&[ok("shard0", 2), ok("shard1", 3)]).unwrap_err();
        assert!(err.contains("divergent"), "{err}");
        // A replica lagging its siblings is divergence too: all-or-nothing
        // covers every replica of every shard.
        let err = reload_verdict(&[ok("shard0/r0", 2), ok("shard0/r1", 1)]).unwrap_err();
        assert!(err.contains("shard0/r1=1"), "{err}");
    }

    #[test]
    fn update_verdict_is_all_or_nothing() {
        let ok = |l: &str, e: u64, a: u64| (l.to_string(), Ok((e, a)));
        let bad = |l: &str, m: &str| (l.to_string(), Err(m.to_string()));
        // Fleet floor epoch, worst-case affected count.
        assert_eq!(update_verdict(&[ok("shard0", 4, 12), ok("shard1", 3, 7)]), Ok((3, 12)));
        // Replicas of one owning shard: all must confirm.
        assert_eq!(update_verdict(&[ok("shard0/r0", 2, 5), ok("shard0/r1", 2, 5)]), Ok((2, 5)));
        let err = update_verdict(&[
            ok("shard0", 2, 5),
            bad("shard1", "update rejected: edge already present"),
        ])
        .unwrap_err();
        assert!(err.contains("shard1: update rejected"), "{err}");
        assert!(err.contains("shard0: UPDATED 2 5"), "{err}");
        assert!(update_verdict(&[]).is_err());
    }

    /// One row per aggregation class: inputs across two shards and the
    /// value the merged body must report.
    #[test]
    fn stats_merge_combines_each_key_by_its_class() {
        let cases: &[(&str, &str, &str, &str)] = &[
            // (key, shard A value, shard B value, merged)
            ("queries", "10", "7", "17"),            // Sum: fleet total
            ("cache_hits", "5", "0", "5"),           // Sum
            ("sparse_bytes", "100", "200", "300"),   // Sum: distinct slices
            ("epoch", "2", "3", "2"),                // Min: generation floor
            ("load_us", "900", "1500", "1500"),      // Max: slowest loader
            ("index_bytes", "64", "80", "80"),       // Max: replicated label bytes
            ("plain_index_bytes", "90", "70", "90"), // Max
            ("max_connections", "1024", "1024", "1024"), // First: config echo
            ("idle_timeout_ms", "600000", "600000", "600000"), // First
            ("drain_grace_ms", "5000", "5000", "5000"), // First
            ("sparse_relabelled", "1", "1", "1"),    // First: format flag
            ("merge_ns", "40", "2", "42"),           // Sum
            ("not_declared", "1", "2", "3"),         // Sum: the fallback
        ];
        for (key, a, b, want) in cases {
            let merged = merge_stats_bodies(&[format!("{key}={a}"), format!("{key}={b}")]);
            assert_eq!(merged, format!("{key}={want}"), "class of {key}");
        }
    }

    #[test]
    fn stats_merge_sums_counters_and_mins_epoch() {
        let merged = merge_stats_bodies(&[
            "queries=10 epoch=2 cache_hits=5".to_string(),
            "queries=7 epoch=3 cache_hits=0 extra=1".to_string(),
        ]);
        assert_eq!(merged, "queries=17 epoch=2 cache_hits=5 extra=1");
    }

    #[test]
    fn stats_merge_does_not_multiply_config_echoes() {
        // The regression the classes exist for: four shards echoing the
        // same limit must not report a 4× limit.
        let bodies: Vec<String> =
            (0..4).map(|_| "max_connections=1024 idle_timeout_ms=600000".to_string()).collect();
        assert_eq!(merge_stats_bodies(&bodies), "max_connections=1024 idle_timeout_ms=600000");
    }

    #[test]
    fn stats_merge_passes_non_numeric_through() {
        let merged = merge_stats_bodies(&["mode=fast queries=1".to_string()]);
        assert_eq!(merged, "mode=fast queries=1");
    }
}
