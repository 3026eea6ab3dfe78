//! Benchmark inputs: the Table I presets at `Scale::Full`, their
//! partitions and SSSP weights, regenerated from the benchmark seed.
//!
//! [`DEFAULT_SEED`] reproduces the presets byte for byte (it calls
//! `Preset::build` and uses the partition and weight seeds of the table
//! binaries). Any other seed feeds the same generator shapes through the
//! public `generators::{rmat, road_network}` functions with derived
//! generator, partition and weight seeds, so a claim can be re-checked
//! on held-out inputs of the same size and structure. A mesh workload
//! runs on several meshes at once (see [`MESH_INSTANCES`]); the first is
//! the one the seed names, the rest come from seeds derived from it.

use std::sync::Arc;
use std::time::Instant;

use atos_graph::generators::{rmat, road_network, Preset, Scale};
use atos_graph::weights::EdgeWeights;
use atos_graph::{Csr, Partition, VertexId};

/// The seed that reproduces the Table I presets byte for byte.
pub const DEFAULT_SEED: u64 = 0;
/// Partition seed of `atos_bench::Dataset::partition`.
const PARTITION_SEED: u64 = 42;
/// SSSP weight seed of the Table III SSSP block.
const WEIGHT_SEED: u64 = 1;
/// SSSP maximum edge weight of the Table III SSSP block.
const MAX_WEIGHT: u32 = 64;

/// Generator arguments of one preset at `Scale::Full`.
#[derive(Clone, Copy)]
enum Shape {
    Rmat {
        scale: u32,
        edges: usize,
        probs: (f64, f64, f64, f64),
    },
    Road {
        w: usize,
        h: usize,
    },
}

/// `Preset::build(Scale::Full)`'s generator arguments and seed for the
/// presets this benchmark uses (checked against the presets by a test).
fn shape(name: &str) -> (Shape, u64) {
    let rmat = |scale, edges, probs| Shape::Rmat {
        scale,
        edges,
        probs,
    };
    match name {
        "soc-LiveJournal1_s" => (rmat(18, 4_300_000, (0.57, 0.19, 0.19, 0.05)), 11),
        "hollywood_2009_s" => (rmat(16, 7_000_000, (0.55, 0.2, 0.2, 0.05)), 22),
        "twitter_s" => (rmat(19, 16_000_000, (0.6, 0.19, 0.16, 0.05)), 44),
        "osm_eur_s" => (Shape::Road { w: 1000, h: 1000 }, 66),
        other => panic!("no benchmark shape for preset {other}"),
    }
}

/// Input instances of a mesh workload. The redundant work of the
/// asynchronous traversals changes from mesh to mesh by about 15% (one
/// standard deviation), alike from every source, so on one mesh the
/// workload's host time would follow the seed; summed over four meshes
/// it changes half as much.
const MESH_INSTANCES: usize = 4;
/// Instance `i > 0` of a run has the seed `derive(seed, INSTANCE_SEED + i)`.
const INSTANCE_SEED: u64 = 100;

/// The value that stands for `base` under `seed`: `base` itself at the
/// default seed, otherwise a SplitMix64 mix of both.
fn derive(seed: u64, base: u64) -> u64 {
    if seed == DEFAULT_SEED {
        return base;
    }
    let mut z = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ base;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn generate(shape: Shape, seed: u64) -> Csr {
    match shape {
        Shape::Rmat {
            scale,
            edges,
            probs,
        } => rmat(scale, edges, probs, seed),
        Shape::Road { w, h } => road_network(w, h, seed),
    }
}

/// The graph of `preset` under `seed`.
pub fn build_graph(preset: Preset, seed: u64) -> Csr {
    if seed == DEFAULT_SEED {
        return preset.build(Scale::Full);
    }
    let (shape, base) = shape(preset.name);
    generate(shape, derive(seed, base))
}

/// How a workload partitions its graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Partitioning {
    /// `Partition::random`, `atos_bench::Dataset`'s policy for twitter.
    Random,
    /// `Partition::bfs_grow`, `atos_bench::Dataset`'s policy for the rest.
    BfsGrow,
}

fn partition(graph: &Csr, n_parts: usize, how: Partitioning, seed: u64) -> Partition {
    let s = derive(seed, PARTITION_SEED);
    match how {
        Partitioning::Random => Partition::random(graph.n_vertices(), n_parts, s),
        Partitioning::BfsGrow => Partition::bfs_grow(graph, n_parts, s),
    }
}

/// Mesh traversals start from the centres of a `MESH_SOURCE_GRID` ×
/// `MESH_SOURCE_GRID` tiling of the grid.
const MESH_SOURCE_GRID: usize = 2;

/// The traversal sources: the hub (`Preset::bfs_source`) on scale-free
/// graphs. On a mesh the hub is a highway endpoint anywhere in the grid,
/// so its depth would change twofold from seed to seed; and the redundant
/// work of an asynchronous traversal changes up to tenfold from one
/// source to another. So mesh traversals start from every tile centre of
/// an even tiling instead.
fn traversal_sources(preset: Preset, graph: &Csr) -> Vec<VertexId> {
    match shape(preset.name).0 {
        Shape::Road { w, h } => {
            let k = MESH_SOURCE_GRID;
            let centre = |i: usize, len: usize| (2 * i + 1) * len / (2 * k);
            (0..k)
                .flat_map(|j| (0..k).map(move |i| (centre(j, h) * w + centre(i, w)) as VertexId))
                .collect()
        }
        Shape::Rmat { .. } => vec![preset.bfs_source(graph)],
    }
}

/// One input instance: everything a workload's cells read.
pub struct Inputs {
    pub graph: Arc<Csr>,
    /// Every traversal cell runs once from each, in order.
    pub sources: Vec<VertexId>,
    pub partition: Arc<Partition>,
    pub weights: Option<Arc<EdgeWeights>>,
}

/// Host seconds of each set-up layer call.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub build_s: f64,
    pub partition_s: f64,
    pub weights_s: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.build_s + self.partition_s + self.weights_s
    }
}

/// Build the input instances of `preset` on `n_parts` PEs (one, or
/// [`MESH_INSTANCES`] for a mesh), timing each layer call; the times sum
/// over the instances.
pub fn set_up(
    preset: Preset,
    n_parts: usize,
    how: Partitioning,
    weighted: bool,
    seed: u64,
) -> (Vec<Inputs>, SetupTimes) {
    let instances = match shape(preset.name).0 {
        Shape::Road { .. } => MESH_INSTANCES,
        Shape::Rmat { .. } => 1,
    };
    let mut times = SetupTimes::default();
    let inputs = (0..instances)
        .map(|i| {
            let seed = match i {
                0 => seed,
                i => derive(seed, INSTANCE_SEED + i as u64),
            };
            set_up_instance(preset, n_parts, how, weighted, seed, &mut times)
        })
        .collect();
    (inputs, times)
}

/// Build one instance under `seed`, adding its layer times to `times`.
fn set_up_instance(
    preset: Preset,
    n_parts: usize,
    how: Partitioning,
    weighted: bool,
    seed: u64,
    times: &mut SetupTimes,
) -> Inputs {
    let t = Instant::now();
    let graph = Arc::new(build_graph(preset, seed));
    let sources = traversal_sources(preset, &graph);
    times.build_s += t.elapsed().as_secs_f64();

    let t = Instant::now();
    let partition = Arc::new(partition(&graph, n_parts, how, seed));
    times.partition_s += t.elapsed().as_secs_f64();

    let t = Instant::now();
    let weights = weighted.then(|| {
        Arc::new(EdgeWeights::random(
            &graph,
            MAX_WEIGHT,
            derive(seed, WEIGHT_SEED),
        ))
    });
    times.weights_s += t.elapsed().as_secs_f64();

    Inputs {
        graph,
        sources,
        partition,
        weights,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The shape table must regenerate each preset exactly at its own
    /// seed, or non-default seeds would not be the same workload.
    #[test]
    fn shapes_reproduce_the_presets() {
        for name in [
            "soc-LiveJournal1_s",
            "hollywood_2009_s",
            "twitter_s",
            "osm_eur_s",
        ] {
            let preset = Preset::by_name(name).unwrap();
            let (shape, base) = shape(name);
            assert!(generate(shape, base) == preset.build(Scale::Full), "{name}");
        }
    }

    #[test]
    fn default_seed_keeps_the_table_seeds() {
        assert_eq!(derive(DEFAULT_SEED, PARTITION_SEED), PARTITION_SEED);
        assert_ne!(derive(7, PARTITION_SEED), derive(8, PARTITION_SEED));
    }
}
