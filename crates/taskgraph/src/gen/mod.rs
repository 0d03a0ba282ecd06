//! Workload generators.
//!
//! [`generate`] produces the random task graphs of §5.2 of the paper;
//! [`generate_shape`] produces the regular structures (chains, trees,
//! fork–join) discussed as future work in §8. Both are deterministic given a
//! seeded RNG, which the experiment harness uses for paired comparisons.
//!
//! [`stream_seed`] derives per-replication seed streams so any replication
//! of a sweep is independently addressable (the entry point of the sharded
//! experiment engine); [`generate_seeded`] / [`generate_shape_seeded`] run
//! the generators directly at one such seed.

pub(crate) mod random;
mod seed;
mod shapes;
mod spec;

pub use random::{end_to_end_deadline, generate, GenerateError};
pub use seed::{generate_seeded, generate_shape_seeded, stream_label, stream_seed, sub_stream};
pub use shapes::{generate_shape, Shape};
pub use spec::{DeadlineBase, ExecVariation, WorkloadSpec};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TaskGraph;

    /// Folds one graph's `content_hash`, topological order and adjacency
    /// (every node's out- and in-edges, in order) into `hash` (FNV-1a over
    /// 64-bit words).
    fn fold(mut hash: u64, g: &TaskGraph) -> u64 {
        let mut mix = |word: u64| {
            hash = (hash ^ word).wrapping_mul(0x0000_0100_0000_01B3);
        };
        mix(g.content_hash());
        for &v in g.topological_order() {
            mix(v.index() as u64);
        }
        for v in g.subtask_ids() {
            for edges in [g.out_edges(v), g.in_edges(v)] {
                mix(edges.len() as u64);
                for &e in edges {
                    mix(e.index() as u64);
                }
            }
        }
        hash
    }

    #[test]
    fn generated_graphs_keep_their_pinned_digest() {
        // Captured before the builder and the generator were rewritten over
        // flat adjacency: a changed draw, order or edge id changes it.
        let mut hash = 0xCBF2_9CE4_8422_2325;
        for variation in ExecVariation::paper_scenarios() {
            let spec = WorkloadSpec::paper(variation);
            for seed in 0..64 {
                hash = fold(hash, &generate_seeded(&spec, seed).unwrap());
            }
        }
        let spec = WorkloadSpec::paper(ExecVariation::Mdet);
        for shape in [
            Shape::Chain { length: 7 },
            Shape::InTree {
                depth: 4,
                branching: 3,
            },
            Shape::OutTree {
                depth: 4,
                branching: 2,
            },
            Shape::ForkJoin {
                stages: 3,
                width: 4,
            },
        ] {
            for seed in 0..64 {
                hash = fold(hash, &generate_shape_seeded(shape, &spec, seed).unwrap());
            }
        }
        assert_eq!(hash, 0xEC59_27BC_F8FC_808C, "digest {hash:#018X}");
    }
}
