//! Cross-request slice cache: a bounded LRU over full slicing inputs.
//!
//! Slicing depends only on the graph, the slicer configuration and the
//! platform — never on committed load — so two requests carrying the same
//! graph may legally share one slicing run. The [`SliceKey`] captures
//! *every* input the produced [`DeadlineAssignment`] is a function of:
//!
//! * what the loop reads of the platform and the metric, the
//!   [`SliceInputs`]: every expanded node's virtual time (bit for bit)
//!   and every message's estimated cost;
//! * per-subtask anchors — given release, given deadline;
//! * the edge list — endpoints;
//! * the slicer fingerprint — metric name and estimation-strategy label
//!   (both recorded in the assignment), share rule, strict-windows flag.
//!
//! The metric's parameters and the platform enter only through the
//! inputs, so two THRES surpluses, or two `Known` pinnings, share a key
//! exactly when they give every node the same virtual time and every
//! message the same cost — that is, when slicing cannot tell them apart.
//!
//! This is deliberately stronger than the structural `GraphSig` the
//! incremental memo uses: the memo only needs the *expanded shape* to
//! match (anchor and WCET changes replay incrementally), while a cache
//! hit returns the memoized output verbatim and therefore must witness
//! bit-equality of all inputs. A 64-bit content hash is precomputed for
//! cheap filtering; full key equality is confirmed on every hit, so hash
//! collisions degrade to misses of the colliding entry, never to wrong
//! output.
//!
//! The cache itself ([`SliceCache`]) is a plain bounded LRU over a vector
//! with a monotonic use-stamp — capacities are small (default 64), so a
//! linear scan beats maintaining an ordered index.
//!
//! [`DeadlineAssignment`]: crate::DeadlineAssignment

use std::hash::{Hash, Hasher};

use platform::Platform;
use taskgraph::{TaskGraph, Time};

use crate::{ShareRule, SliceInputs, Slicer};

/// The complete set of slicing inputs, hashed for fast comparison.
/// Two equal keys guarantee bit-identical [`Slicer::distribute`] output.
///
/// [`Slicer::distribute`]: crate::Slicer::distribute
#[derive(Debug, Clone)]
pub struct SliceKey {
    hash: u64,
    metric: String,
    estimate: &'static str,
    rule: ShareRule,
    strict: bool,
    inputs: SliceInputs,
    /// Per subtask: (given release, given deadline).
    anchors: Vec<(Option<i64>, Option<i64>)>,
    /// Per edge: (src, dst).
    edges: Vec<(u32, u32)>,
}

impl SliceKey {
    fn new(slicer: &Slicer, graph: &TaskGraph, inputs: SliceInputs) -> SliceKey {
        let anchors: Vec<(Option<i64>, Option<i64>)> = graph
            .subtask_ids()
            .map(|id| {
                let s = graph.subtask(id);
                (
                    s.release().map(Time::as_i64),
                    s.deadline().map(Time::as_i64),
                )
            })
            .collect();
        let edges: Vec<(u32, u32)> = graph
            .edge_ids()
            .map(|eid| {
                let e = graph.edge(eid);
                (e.src().index() as u32, e.dst().index() as u32)
            })
            .collect();
        let rule = slicer.metric().share_rule();
        // DefaultHasher with default keys is deterministic within a
        // process, which is all the in-memory cache needs (hashes are
        // never persisted or compared across processes). The hash covers
        // the configuration and the per-node content; the message costs
        // and the edge list are compared on a hash match only.
        let mut h = std::collections::hash_map::DefaultHasher::new();
        slicer.metric_name().hash(&mut h);
        slicer.estimate_label().hash(&mut h);
        (match rule {
            ShareRule::EqualShare => 0u8,
            ShareRule::Proportional => 1u8,
        })
        .hash(&mut h);
        slicer.strict().hash(&mut h);
        for w in &inputs.vweights {
            w.to_bits().hash(&mut h);
        }
        anchors.hash(&mut h);
        SliceKey {
            hash: h.finish(),
            metric: slicer.metric_name().to_owned(),
            estimate: slicer.estimate_label(),
            rule,
            strict: slicer.strict(),
            inputs,
            anchors,
            edges,
        }
    }

    /// The precomputed 64-bit content hash (a filter, not a witness).
    pub fn content_hash(&self) -> u64 {
        self.hash
    }

    /// What the slicer read of the platform and its metric; on a miss,
    /// [`Slicer::distribute_from`] slices from them without reading them
    /// again.
    pub fn inputs(&self) -> &SliceInputs {
        &self.inputs
    }
}

impl PartialEq for SliceKey {
    fn eq(&self, other: &Self) -> bool {
        // The hash screens out almost every mismatch; the field compare
        // behind it is what makes equality a correctness witness.
        self.hash == other.hash
            && self.strict == other.strict
            && self.rule == other.rule
            && self.estimate == other.estimate
            && self.metric == other.metric
            && self.inputs == other.inputs
            && self.anchors == other.anchors
            && self.edges == other.edges
    }
}

impl Eq for SliceKey {}

impl Slicer {
    /// The cross-request cache key for slicing `graph` on `platform` with
    /// this slicer's configuration: equal keys guarantee bit-identical
    /// [`distribute`](Slicer::distribute) output.
    pub fn cache_key(&self, graph: &TaskGraph, platform: &Platform) -> SliceKey {
        SliceKey::new(self, graph, self.inputs(graph, platform))
    }
}

/// A bounded LRU mapping [`SliceKey`]s to memoized slice products.
///
/// Lookups and inserts are O(capacity) linear scans — capacities are a
/// few dozen entries, where a scan over a dense vector outruns any
/// pointer-chasing order structure.
#[derive(Debug)]
pub struct SliceCache<V> {
    capacity: usize,
    stamp: u64,
    entries: Vec<CacheEntry<V>>,
}

#[derive(Debug)]
struct CacheEntry<V> {
    key: SliceKey,
    value: V,
    last_used: u64,
}

impl<V: Clone> SliceCache<V> {
    /// An empty cache holding at most `capacity` entries (clamped to at
    /// least 1 — use no cache at all to disable caching).
    pub fn new(capacity: usize) -> SliceCache<V> {
        SliceCache {
            capacity: capacity.max(1),
            stamp: 0,
            entries: Vec::new(),
        }
    }

    /// Looks `key` up, cloning the memoized value on a hit and marking
    /// the entry most-recently used.
    pub fn get(&mut self, key: &SliceKey) -> Option<V> {
        self.stamp += 1;
        let stamp = self.stamp;
        self.entries
            .iter_mut()
            .find(|e| e.key.hash == key.hash && e.key == *key)
            .map(|e| {
                e.last_used = stamp;
                e.value.clone()
            })
    }

    /// Inserts (or refreshes) `key → value`, evicting the least-recently
    /// used entry when full. Returns `true` when an eviction happened.
    pub fn insert(&mut self, key: SliceKey, value: V) -> bool {
        self.stamp += 1;
        let stamp = self.stamp;
        if let Some(e) = self
            .entries
            .iter_mut()
            .find(|e| e.key.hash == key.hash && e.key == key)
        {
            e.value = value;
            e.last_used = stamp;
            return false;
        }
        let mut evicted = false;
        if self.entries.len() >= self.capacity {
            if let Some(lru) = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(i, _)| i)
            {
                self.entries.swap_remove(lru);
                evicted = true;
            }
        }
        self.entries.push(CacheEntry {
            key,
            value,
            last_used: stamp,
        });
        evicted
    }

    /// Number of memoized entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The configured capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use platform::Topology;
    use taskgraph::{Subtask, TaskGraphBuilder};

    use super::*;
    use crate::MetricKind;

    fn platform(n: usize) -> Platform {
        Platform::homogeneous(
            n,
            Topology::SharedBus {
                cost_per_item: Time::new(1),
            },
        )
        .unwrap()
    }

    fn chain(wcets: &[i64], deadline: i64) -> TaskGraph {
        let mut b = TaskGraphBuilder::new();
        let mut prev = None;
        let last = wcets.len() - 1;
        for (i, &w) in wcets.iter().enumerate() {
            let mut s = Subtask::new(Time::new(w));
            if i == 0 {
                s = s.released_at(Time::ZERO);
            }
            if i == last {
                s = s.due_at(Time::new(deadline));
            }
            let id = b.add_subtask(s);
            if let Some(p) = prev {
                b.add_edge(p, id, 1).unwrap();
            }
            prev = Some(id);
        }
        b.build().unwrap()
    }

    #[test]
    fn equal_inputs_equal_keys() {
        let slicer = Slicer::ast_adapt();
        let p = platform(4);
        let a = slicer.cache_key(&chain(&[10, 20], 100), &p);
        let b = slicer.cache_key(&chain(&[10, 20], 100), &p);
        assert_eq!(a, b);
        assert_eq!(a.content_hash(), b.content_hash());
    }

    #[test]
    fn every_input_dimension_separates_keys() {
        let slicer = Slicer::ast_adapt();
        let p = platform(4);
        let base = slicer.cache_key(&chain(&[10, 20], 100), &p);
        // WCET content (same structure — the incremental GraphSig would
        // not distinguish these).
        let wcet = slicer.cache_key(&chain(&[10, 21], 100), &p);
        assert_ne!(base, wcet);
        // Anchor content.
        let deadline = slicer.cache_key(&chain(&[10, 20], 101), &p);
        assert_ne!(base, deadline);
        // Platform shape.
        let other_platform = slicer.cache_key(&chain(&[10, 20], 100), &platform(8));
        assert_ne!(base, other_platform);
        // Slicer configuration.
        let other_metric = Slicer::new(MetricKind::pure()).cache_key(&chain(&[10, 20], 100), &p);
        assert_ne!(base, other_metric);
        let strict = Slicer::ast_adapt()
            .with_strict_windows(true)
            .cache_key(&chain(&[10, 20], 100), &p);
        assert_ne!(base, strict);
    }

    /// THRES's surplus is a metric parameter the old key did not name:
    /// Δ=1 and Δ=4 got one key but slice HDET graphs differently. The key
    /// now holds the virtual times, so a probe for Δ=4 never returns
    /// Δ=1's assignment.
    #[test]
    fn thres_surpluses_that_slice_differently_get_different_keys() {
        use taskgraph::gen::{generate_seeded, ExecVariation, WorkloadSpec};

        let spec = WorkloadSpec::paper(ExecVariation::Hdet);
        let p = Platform::paper(4).unwrap();
        let (one, four) = (Slicer::ast_thres(1.0), Slicer::ast_thres(4.0));
        let mut differing = 0;
        for seed in 0..50 {
            let g = generate_seeded(&spec, seed).unwrap();
            let (a1, a4) = (
                one.distribute(&g, &p).unwrap(),
                four.distribute(&g, &p).unwrap(),
            );
            let mut cache = SliceCache::new(4);
            cache.insert(one.cache_key(&g, &p), a1.clone());
            match cache.get(&four.cache_key(&g, &p)) {
                Some(hit) => assert_eq!(hit, a4, "seed {seed}: a hit must be Δ=4's own"),
                None => assert_ne!(a1, a4, "seed {seed}: equal inputs must share a key"),
            }
            differing += usize::from(a1 != a4);
        }
        assert_eq!(differing, 50);
    }

    /// The old key named a `Known` estimate by its label alone, so two
    /// pinnings collided. The key now holds every message's cost.
    #[test]
    fn known_pinnings_with_different_costs_get_different_keys() {
        use platform::{Pinning, ProcessorId};

        use crate::CommEstimate;

        let g = chain(&[10, 20, 30], 200);
        let p = platform(4);
        let pinned = |procs: [u32; 3]| {
            let mut pins = Pinning::new();
            for (i, proc) in procs.into_iter().enumerate() {
                pins.pin(taskgraph::SubtaskId::new(i as u32), ProcessorId::new(proc))
                    .unwrap();
            }
            Slicer::bst_pure().with_estimate(CommEstimate::Known(pins))
        };
        let (local, remote) = (pinned([0, 0, 0]), pinned([0, 1, 2]));
        let (a_local, a_remote) = (
            local.distribute(&g, &p).unwrap(),
            remote.distribute(&g, &p).unwrap(),
        );
        assert_ne!(a_local, a_remote);
        let mut cache = SliceCache::new(4);
        cache.insert(local.cache_key(&g, &p), a_local);
        assert_eq!(cache.get(&remote.cache_key(&g, &p)), None);
        // Pinnings that cost the same are the same slicing input.
        assert_eq!(
            pinned([1, 2, 3]).cache_key(&g, &p),
            remote.cache_key(&g, &p)
        );
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let slicer = Slicer::ast_adapt();
        let p = platform(4);
        let k1 = slicer.cache_key(&chain(&[1, 1], 100), &p);
        let k2 = slicer.cache_key(&chain(&[2, 2], 100), &p);
        let k3 = slicer.cache_key(&chain(&[3, 3], 100), &p);

        let mut cache: SliceCache<u32> = SliceCache::new(2);
        assert!(!cache.insert(k1.clone(), 1));
        assert!(!cache.insert(k2.clone(), 2));
        // Touch k1 so k2 is the LRU victim.
        assert_eq!(cache.get(&k1), Some(1));
        assert!(cache.insert(k3.clone(), 3));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get(&k2), None);
        assert_eq!(cache.get(&k1), Some(1));
        assert_eq!(cache.get(&k3), Some(3));
    }

    #[test]
    fn reinsert_refreshes_without_eviction() {
        let slicer = Slicer::ast_adapt();
        let p = platform(4);
        let k = slicer.cache_key(&chain(&[1, 1], 100), &p);
        let mut cache: SliceCache<u32> = SliceCache::new(1);
        assert!(!cache.insert(k.clone(), 1));
        assert!(!cache.insert(k.clone(), 2));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get(&k), Some(2));
    }
}
