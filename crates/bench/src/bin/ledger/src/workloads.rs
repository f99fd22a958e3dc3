//! The four workloads.  Everything is generated here; the program
//! under test sees only the requests.
//!
//! `--seed` only permutes.  Each workload's catalog and base shapes come
//! from a constant in this file (`SHAPES_SEED`), and `--seed` decides
//! what the client does with them: how every occurrence is
//! table-renamed and in what order the list runs.  That split is
//! deliberate.  With statistics drawn per `--seed`, ten seeds moved
//! `plan_cost_ratio` between 0.35 and 0.81 and the search work of one
//! block by +-12%: every metric followed the seed, none the program.
//! Renaming and reordering change every byte on the wire and every
//! cache and memo access pattern, but not the amount of work, so two
//! seeds are two samples of one workload.

use lec_catalog::{Catalog, CatalogGenerator};
use lec_core::{AlgDConfig, Mode, PointEstimate};
use lec_plan::{Query, QueryProfile, Topology, WorkloadGenerator};
use lec_prob::{Distribution, MarkovChain};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

pub const NAMES: [&str; 4] = ["warm_hits", "mixed_churn", "cold_mix", "large_joins"];

/// One wire request as `Client::optimize_batch` takes it; the id is the
/// request's index in the block's list.
pub type Request = (u64, Mode, Query);

/// How long a server lives relative to the timed blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lifetime {
    /// One server for the whole run, its cache filled during set-up.
    Run,
    /// A fresh server and daemon for every block, so every block starts
    /// cold and every block is a bring-up sample.
    Block,
}

/// Which CPUs a run's threads may use.  The harness sets it once, on
/// its main thread, before anything else; every thread of the run — the
/// oracle, the client, the daemon's acceptor, handler and search pool —
/// inherits it, exactly as under `taskset`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Whatever the host gives: the handler sees every CPU, so searches
    /// fan out to the worker pool as shipped.
    Host,
    /// One CPU for the whole run.  For the two workloads whose time is
    /// the hit path: a request handed across virtual CPUs pays a wake-up
    /// that costs more than a hit does and that the scheduler grants or
    /// withholds for a whole run at a time (README, "Thread placement").
    /// The price is stated there too: `available_parallelism` is 1, so
    /// the searches these runs do make (fill, misses) are serial.
    OneCpu,
}

pub struct Workload {
    pub name: &'static str,
    /// The `--seed` the lists were built from.
    pub seed: u64,
    pub catalog: Catalog,
    /// The request list every block replays.
    pub requests: Vec<Request>,
    /// `shape[i]` is the base shape request `i` is a renaming of.
    pub shape: Vec<usize>,
    /// Requests per write (`1` = `optimize_once`, else `optimize_batch`).
    pub depth: usize,
    pub cache_capacity: usize,
    pub lifetime: Lifetime,
    /// Where the run's threads may go; see [`Placement`].
    pub placement: Placement,
    /// Timed blocks per second of `--seconds`, set once so that a run
    /// lasts about that long on the host this was written on.  The
    /// block count follows from the argument, never from the clock:
    /// parent and change are reduced over the same number of blocks.
    blocks_per_second: f64,
    /// Built with shortened lists (`--smoke`): properties that were
    /// tuned on the full lists, such as the hit share, are not asserted.
    pub smoke: bool,
}

/// Fewest timed blocks of a full run, whatever `--seconds` says.
const MIN_BLOCKS: usize = 30;
pub const MIN_TRACED_ROUNDS: usize = 10;
const SMOKE_BLOCKS: usize = 2;

impl Workload {
    /// Timed blocks of an untraced run asked to measure for `seconds`.
    pub fn blocks(&self, seconds: f64) -> usize {
        if self.smoke {
            return SMOKE_BLOCKS;
        }
        ((seconds * self.blocks_per_second).round() as usize).max(MIN_BLOCKS)
    }

    /// How long the timed phase may last before the remaining blocks
    /// (of a traced run: the rounds beyond [`MIN_TRACED_ROUNDS`]) are
    /// shed.  A safety net for the driver's total time limit, not the
    /// measure: the blocks take 0.6-0.7 of `seconds` on the host this was
    /// written on when it is quiet, the cap bites when its median block
    /// is 1.8 times its best, and a run that is cut short says so.
    pub fn time_cap(&self, seconds: f64) -> Duration {
        if self.smoke {
            return Duration::MAX;
        }
        Duration::from_secs_f64(seconds.max(1.0) * 1.2)
    }

    /// Rounds of a traced run; each replays the list four ways.
    pub fn traced_rounds(&self, seconds: f64) -> usize {
        if self.smoke {
            return SMOKE_BLOCKS;
        }
        (self.blocks(seconds) / 4).max(MIN_TRACED_ROUNDS)
    }

    /// Index of the first request of every base shape that occurs, in
    /// list order: the cache fill, and the distinct requests the plan
    /// cost ratio is taken over.
    pub fn first_of_each_shape(&self) -> Vec<usize> {
        let mut seen = vec![false; self.shape.iter().max().map_or(0, |m| m + 1)];
        let mut firsts = Vec::new();
        for (i, &s) in self.shape.iter().enumerate() {
            if !std::mem::replace(&mut seen[s], true) {
                firsts.push(i);
            }
        }
        firsts
    }
}

/// The memory belief every workload runs under.
pub fn memory() -> Distribution {
    lec_prob::presets::spread_family(500.0, 0.6, 4).expect("static parameters are valid")
}

const WARM_SHAPES: usize = 24;
const WARM_BLOCK: usize = 8192;
const WARM_DEPTH: usize = 32;
const CHURN_SHAPES: usize = 96;
const CHURN_BLOCK: usize = 2048;
/// Plan-cache capacity for `mixed_churn`: below the 96-shape working
/// set, tuned once so that about three requests in four hit.
const CHURN_CAPACITY: usize = 48;
/// `cold_mix` is the full factorial of 5 sizes (4..=8 tables) x 3
/// topologies x the 20-slot mode pattern, so every mode meets every size
/// and topology exactly once whatever the seed.
const COLD_SIZES: usize = 5;
const COLD_MODE_SLOTS: usize = 20;
const COLD_SHAPES: usize = COLD_SIZES * TOPOLOGIES.len() * COLD_MODE_SLOTS;
const TOPOLOGIES: [Topology; 3] = [Topology::Chain, Topology::Star, Topology::Random];

/// `(topology, tables, how many)` per `large_joins` block of 40: all but
/// the clique past the canonicalizer's 12-table ceiling.  Thirty-four
/// cheap chains (2-4 ms each), four random graphs (~45 ms), one clique
/// (~150 ms) and one star (~280 ms): p50 is a chain, p90 (the 36th of
/// 40) a random graph, and the block stays near 0.7 s so that thirty of
/// them fit a run.
const LARGE_CLASSES: [(Topology, usize, usize); 6] = [
    (Topology::Chain, 13, 12),
    (Topology::Chain, 14, 11),
    (Topology::Chain, 15, 11),
    (Topology::Random, 13, 4),
    (Topology::Clique, 12, 1),
    (Topology::Star, 13, 1),
];

fn shuffle<T>(rng: &mut StdRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// Where every workload's catalog and base shapes come from; see the
/// module docs for why this is not `--seed`.
const SHAPES_SEED: u64 = 1;

/// Source of catalogs and base shapes.
struct Shapes {
    tables: CatalogGenerator,
    queries: WorkloadGenerator,
}

impl Shapes {
    fn new() -> Self {
        Shapes {
            tables: CatalogGenerator::new(SHAPES_SEED),
            queries: WorkloadGenerator::new(SHAPES_SEED ^ 0x5EED),
        }
    }

    fn query(
        &mut self,
        catalog: &Catalog,
        n: usize,
        topology: Topology,
        sel_buckets: usize,
    ) -> Query {
        let ids = self.tables.pick_tables(catalog, n);
        self.queries.gen_query(
            catalog,
            &ids,
            &QueryProfile {
                topology,
                sel_buckets,
                ..Default::default()
            },
        )
    }
}

fn renamed(rng: &mut StdRng, q: &Query) -> Query {
    let mut perm: Vec<usize> = (0..q.n_tables()).collect();
    shuffle(rng, &mut perm);
    q.relabel_tables(&perm)
}

/// A skewed stream over `pool`: shape `i` occurs in proportion to
/// `1/(i+1)` and at least once, the whole in random order and every
/// occurrence randomly table-renamed.  The counts are apportioned, not
/// drawn, so every `--seed` sends the same multiset of shapes — the same
/// cache fill, the same `plan_cost_ratio`, the same number of misses to
/// within what the order does to the LRU.
fn skewed_stream(
    rng: &mut StdRng,
    pool: &[Query],
    mode: &Mode,
    len: usize,
) -> (Vec<Request>, Vec<usize>) {
    let total: f64 = (0..pool.len()).map(|i| 1.0 / (i as f64 + 1.0)).sum();
    let spare = (len - pool.len()) as f64;
    let mut shape: Vec<usize> = Vec::with_capacity(len);
    let mut owed = 0.0;
    for i in 0..pool.len() {
        // One guaranteed occurrence plus this shape's share of the rest,
        // carrying the rounding remainder forward.
        owed += spare / (i as f64 + 1.0) / total;
        let extra = owed.round();
        owed -= extra;
        shape.extend(std::iter::repeat_n(i, 1 + extra as usize));
    }
    shape.truncate(len);
    shuffle(rng, &mut shape);
    let requests = shape
        .iter()
        .enumerate()
        .map(|(id, &s)| (id as u64, mode.clone(), renamed(rng, &pool[s])))
        .collect();
    (requests, shape)
}

fn skewed(
    name: &'static str,
    seed: u64,
    smoke: bool,
    (shapes, len, depth, cache_capacity, blocks_per_second): (usize, usize, usize, usize, f64),
) -> Workload {
    let len = if smoke { len / 16 } else { len };
    let mut gen = Shapes::new();
    let catalog = gen.tables.generate(18);
    let pool: Vec<Query> = (0..shapes)
        .map(|i| gen.query(&catalog, 4 + i % 4, TOPOLOGIES[i % 3], 1))
        .collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xCAFE);
    let (requests, shape) = skewed_stream(&mut rng, &pool, &Mode::AlgorithmC, len);
    Workload {
        name,
        seed,
        catalog,
        requests,
        shape,
        depth,
        cache_capacity,
        lifetime: Lifetime::Run,
        placement: Placement::OneCpu,
        blocks_per_second,
        smoke,
    }
}

/// The `cold_mix` mode for slot `k` of 20: AlgorithmC 40%, C-dynamic
/// 15%, AlgorithmD 15%, AlgorithmB{c:3} 10%, Bushy 10%, LSC(mean) 10%.
fn cold_mode(slot: usize) -> Mode {
    match slot {
        0..=7 => Mode::AlgorithmC,
        8..=10 => Mode::AlgorithmCDynamic {
            chain: MarkovChain::sticky_uniform(memory().support().to_vec(), 0.6)
                .expect("static parameters are valid"),
        },
        11..=13 => Mode::AlgorithmD {
            config: AlgDConfig::default(),
        },
        14..=15 => Mode::AlgorithmB { c: 3 },
        16..=17 => Mode::Bushy,
        _ => Mode::Lsc(PointEstimate::Mean),
    }
}

/// A list of distinct shapes, each sent once per block and renamed by
/// `--seed`; `reorder` also lets the seed decide the order.
fn distinct(
    name: &'static str,
    (seed, smoke, reorder, blocks_per_second): (u64, bool, bool, f64),
    catalog: Catalog,
    mut shapes: Vec<(Mode, Query)>,
) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC01D);
    if reorder {
        shuffle(&mut rng, &mut shapes);
    }
    Workload {
        name,
        seed,
        catalog,
        shape: (0..shapes.len()).collect(),
        requests: shapes
            .into_iter()
            .enumerate()
            .map(|(i, (m, q))| (i as u64, m, renamed(&mut rng, &q)))
            .collect(),
        depth: 1,
        cache_capacity: lec_service::DEFAULT_CACHE_CAPACITY,
        lifetime: Lifetime::Block,
        placement: Placement::Host,
        blocks_per_second,
        smoke,
    }
}

fn cold_mix(seed: u64, smoke: bool) -> Workload {
    let mut gen = Shapes::new();
    let catalog = gen.tables.generate(24);
    let count = if smoke {
        2 * COLD_MODE_SLOTS
    } else {
        COLD_SHAPES
    };
    let shapes = (0..count)
        .map(|i| {
            // Smoke keeps every mode but only the two smallest sizes.
            let (size, topo, slot) = if smoke {
                (i % 2, (i / 2) % 3, i % COLD_MODE_SLOTS)
            } else {
                (i % COLD_SIZES, (i / COLD_SIZES) % 3, i / (COLD_SIZES * 3))
            };
            let mode = cold_mode(slot);
            // Algorithm D is the mode that reads selectivity
            // distributions; every fourth other query carries them too.
            let sel_buckets = if matches!(mode, Mode::AlgorithmD { .. }) || i % 4 == 3 {
                3
            } else {
                1
            };
            (
                mode,
                gen.query(&catalog, 4 + size, TOPOLOGIES[topo], sel_buckets),
            )
        })
        .collect();
    distinct("cold_mix", (seed, smoke, true, 1.6), catalog, shapes)
}

fn large_joins(seed: u64, smoke: bool) -> Workload {
    let mut gen = Shapes::new();
    let catalog = gen.tables.generate(20);
    let mut shapes = Vec::new();
    for (topology, n, count) in LARGE_CLASSES {
        // Smoke keeps one query per class and shrinks the dense ones:
        // every code path (refusal, pruning, caching a clique) still
        // runs, in debug builds too.
        let (n, count) = match (smoke, topology) {
            (false, _) => (n, count),
            (true, Topology::Chain) => (n, 1),
            (true, _) => (n.min(9), 1),
        };
        for _ in 0..count {
            shapes.push((Mode::AlgorithmC, gen.query(&catalog, n, topology, 1)));
        }
    }
    // What an earlier search left in the subplan memo moves a later one
    // by a quarter, and forty requests are too few to average that away:
    // the order is part of the workload, not of the seed.
    distinct("large_joins", (seed, smoke, false, 1.2), catalog, shapes)
}

/// Build workload `name` from `seed`.  `smoke` shrinks the lists (not
/// the code paths) so a test run finishes in seconds.
pub fn build(name: &str, seed: u64, smoke: bool) -> Option<Workload> {
    let warm = (
        WARM_SHAPES,
        WARM_BLOCK,
        WARM_DEPTH,
        lec_service::DEFAULT_CACHE_CAPACITY,
        10.0,
    );
    let churn = (CHURN_SHAPES, CHURN_BLOCK, 1, CHURN_CAPACITY, 4.0);
    Some(match name {
        "warm_hits" => skewed("warm_hits", seed, smoke, warm),
        "mixed_churn" => skewed("mixed_churn", seed, smoke, churn),
        "cold_mix" => cold_mix(seed, smoke),
        "large_joins" => large_joins(seed, smoke),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lec_serviced::protocol::{self, Writer};

    /// The list as the bytes the client would put on the wire.
    fn encoded(w: &Workload) -> Vec<u8> {
        let mut out = Writer::new();
        for (id, mode, query) in &w.requests {
            out.u64(*id);
            protocol::encode_mode(&mut out, mode);
            protocol::encode_query(&mut out, query);
        }
        out.into_bytes()
    }

    #[test]
    fn same_seed_same_bytes_and_another_seed_other_bytes() {
        for name in NAMES {
            let a = build(name, 11, true).unwrap();
            let b = build(name, 11, true).unwrap();
            let c = build(name, 12, true).unwrap();
            assert_eq!(a.catalog, b.catalog, "{name}");
            assert_eq!(encoded(&a), encoded(&b), "{name}: same seed must repeat");
            assert_ne!(encoded(&a), encoded(&c), "{name}: seeds must differ");
            assert_eq!(a.requests.len(), c.requests.len(), "{name}: same work");
        }
    }

    #[test]
    fn structure_is_fixed_by_the_code_not_the_seed() {
        let sizes = |w: &Workload| -> Vec<usize> {
            let mut s: Vec<usize> = w.requests.iter().map(|r| r.2.n_tables()).collect();
            s.sort_unstable();
            s
        };
        for name in ["cold_mix", "large_joins"] {
            let (a, b) = (
                build(name, 1, false).unwrap(),
                build(name, 2, false).unwrap(),
            );
            assert_eq!(sizes(&a), sizes(&b), "{name}");
            for q in a.requests.iter().map(|r| &r.2) {
                assert_eq!(q.validate(&a.catalog), Ok(()));
            }
        }
        let cold = build("cold_mix", 1, false).unwrap();
        assert_eq!(cold.requests.len(), 300);
        let share = |pred: fn(&Mode) -> bool| {
            cold.requests.iter().filter(|r| pred(&r.1)).count() as f64 / 300.0
        };
        assert_eq!(share(|m| matches!(m, Mode::AlgorithmC)), 0.4);
        assert_eq!(share(|m| matches!(m, Mode::AlgorithmD { .. })), 0.15);
        assert_eq!(share(|m| matches!(m, Mode::Lsc(_))), 0.1);
        assert_eq!(build("large_joins", 1, false).unwrap().requests.len(), 40);
    }

    #[test]
    fn block_counts_follow_the_argument_not_the_clock() {
        let w = build("large_joins", 1, false).unwrap();
        assert_eq!(w.blocks(25.0), 30);
        assert_eq!(w.blocks(50.0), 60);
        assert_eq!(w.blocks(0.0), MIN_BLOCKS);
        assert_eq!(w.traced_rounds(25.0), MIN_TRACED_ROUNDS);
        let warm = build("warm_hits", 1, false).unwrap();
        assert_eq!((warm.blocks(25.0), warm.traced_rounds(25.0)), (250, 62));
        let smoke = build("warm_hits", 1, true).unwrap();
        assert_eq!((smoke.blocks(25.0), smoke.traced_rounds(25.0)), (2, 2));
        assert_eq!(smoke.time_cap(25.0), Duration::MAX);
    }

    #[test]
    fn fill_covers_every_shape_once() {
        let w = build("warm_hits", 3, false).unwrap();
        let firsts = w.first_of_each_shape();
        assert_eq!(firsts.len(), WARM_SHAPES);
        let mut shapes: Vec<usize> = firsts.iter().map(|&i| w.shape[i]).collect();
        shapes.sort_unstable();
        assert_eq!(shapes, (0..WARM_SHAPES).collect::<Vec<_>>());
        assert!(build("nope", 1, false).is_none());
    }
}
