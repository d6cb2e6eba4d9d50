//! Seeded workload generation. Every input the program receives is a
//! pure function of the `--seed` argument: the same seed gives the same
//! specs in the same order, and the program sees only the specs.

use cedar_serve::JobSpec;

/// SplitMix64: a tiny, well-mixed, seedable generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0); the modulo bias is far below noise.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
    }
}

/// CE counts of the Table-2 study.
pub const TABLE2_CES: [u32; 3] = [8, 16, 32];
/// Prefetch blocks per CE in the `table2` cells. Larger cells run for
/// milliseconds each and make the pool's end-of-batch tail depend on
/// the order the seed picks.
pub const TABLE2_BLOCKS: [u32; 2] = [1, 2];

/// One shuffled copy of every healthy Table-2 cell: kernel × CE count
/// × block count. The multiset of cells is fixed, so every seed asks
/// for the same work; the seed decides the order the pool meets it in.
#[must_use]
pub fn table2_cells(rng: &mut Rng) -> Vec<JobSpec> {
    let mut cells = Vec::new();
    for kernel in 0..cedar_serve::job::KERNELS.len() as u8 {
        for ces in TABLE2_CES {
            for blocks in TABLE2_BLOCKS {
                cells.push(JobSpec::Table2 {
                    kernel,
                    ces,
                    blocks,
                });
            }
        }
    }
    rng.shuffle(&mut cells);
    cells
}

/// The `table2` batch handed to one `run_sweep_on` call: `copies`
/// independently shuffled copies of [`table2_cells`].
#[must_use]
pub fn table2_batch(seed: u64, copies: usize) -> Vec<JobSpec> {
    let mut rng = Rng::new(seed);
    (0..copies).flat_map(|_| table2_cells(&mut rng)).collect()
}

/// Link-drop rates of the `degraded` points, in parts per million.
pub const DEGRADED_RATES_PPM: [u32; 2] = [2_000, 5_000];
/// CE counts of the `degraded` points.
pub const DEGRADED_CES: [u32; 2] = [8, 16];
/// Prefetch blocks per CE of the `degraded` points.
pub const DEGRADED_BLOCKS: u32 = 1;
/// Fault schedules per (rate, CE count) pair.
pub const DEGRADED_SCHEDULES: u64 = 4;

/// The `degraded` points: every rate × CE count under
/// [`DEGRADED_SCHEDULES`] fixed fault schedules, in an order the seed
/// decides. Whether a schedule's drops force a retry timeout moves one
/// point's cost between about 5k and 29k simulated cycles, so schedules
/// drawn from the seed would make throughput a property of the seed;
/// like `table2`, the seed picks the order of a fixed multiset.
#[must_use]
pub fn degraded_points(seed: u64) -> Vec<JobSpec> {
    let mut points = Vec::new();
    for rate_ppm in DEGRADED_RATES_PPM {
        for ces in DEGRADED_CES {
            for schedule in 0..DEGRADED_SCHEDULES {
                points.push(JobSpec::Degraded {
                    rate_ppm,
                    ces,
                    blocks: DEGRADED_BLOCKS,
                    seed: 0xCEDA + schedule,
                });
            }
        }
    }
    Rng::new(seed ^ 0xDE6A_DED0).shuffle(&mut points);
    points
}

/// Memoized specs the `serve` set-up executes and the hit loop repeats.
pub const SERVE_HIT_SET: usize = 256;
/// Hot fractions of the hit set lie in `[HIT_PPM_BASE, EXEC_PPM_BASE)`.
const HIT_PPM_BASE: u32 = 1_000;
/// Hot fractions of fresh specs lie in `[EXEC_PPM_BASE, +EXEC_PPM_SPAN)`,
/// disjoint from the hit set's, so a fresh spec can never hit.
const EXEC_PPM_BASE: u32 = 10_000;
/// Prime spans: `i -> (a*i + b) mod span` is then a bijection.
const HIT_PPM_SPAN: u64 = 8_999;
pub const EXEC_PPM_SPAN: u64 = 99_991;
/// Machine size of every serve spec: a hot-spot job of about 0.6–0.9 ms
/// whatever its hot fraction. Jobs much shorter than that would make
/// the execute loop a test of how fast the filesystem creates cache
/// files rather than of the serving path.
const SERVE_CES: u32 = 16;
const SERVE_BLOCKS: u32 = 4;

/// The `serve` request plan: which memoized spec the `i`-th hit asks
/// for, and which never-seen spec the `i`-th execute asks for.
#[derive(Debug, Clone)]
pub struct ServePlan {
    hits: Vec<JobSpec>,
    hit_pick: Rng,
    exec_a: u64,
    exec_b: u64,
}

fn hotspot(hot_ppm: u64) -> JobSpec {
    JobSpec::Hotspot {
        hot_ppm: u32::try_from(hot_ppm).expect("hot fraction below 1e6 ppm"),
        ces: SERVE_CES,
        blocks: SERVE_BLOCKS,
    }
}

impl ServePlan {
    #[must_use]
    pub fn new(seed: u64) -> Self {
        let mut rng = Rng::new(seed ^ 0x5E2F_E000);
        let a = 1 + rng.below(HIT_PPM_SPAN - 1);
        let b = rng.below(HIT_PPM_SPAN);
        let hits = (0..SERVE_HIT_SET as u64)
            .map(|j| hotspot(u64::from(HIT_PPM_BASE) + (a * j + b) % HIT_PPM_SPAN))
            .collect();
        let exec_a = 1 + rng.below(EXEC_PPM_SPAN - 1);
        let exec_b = rng.below(EXEC_PPM_SPAN);
        ServePlan {
            hits,
            hit_pick: Rng::new(rng.next_u64()),
            exec_a,
            exec_b,
        }
    }

    /// The memoized specs, in the order set-up executes them.
    #[must_use]
    pub fn hit_set(&self) -> &[JobSpec] {
        &self.hits
    }

    /// Index into [`hit_set`](Self::hit_set) of the next hit request.
    pub fn next_hit(&mut self) -> usize {
        self.hit_pick.below(self.hits.len() as u64) as usize
    }

    /// The `i`-th fresh spec: never in the hit set, and distinct from
    /// the [`EXEC_PPM_SPAN`] − 1 specs before it. (The execute loop's
    /// server keeps no cache, so a spec met again after that many is
    /// still executed, not answered from memory.)
    #[must_use]
    pub fn exec_spec(&self, i: u64) -> JobSpec {
        let k = i % EXEC_PPM_SPAN;
        hotspot(u64::from(EXEC_PPM_BASE) + (self.exec_a * k + self.exec_b) % EXEC_PPM_SPAN)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn same_seed_same_specs() {
        assert_eq!(table2_batch(7, 3), table2_batch(7, 3));
        assert_eq!(degraded_points(7), degraded_points(7));
        let (mut a, mut b) = (ServePlan::new(7), ServePlan::new(7));
        assert_eq!(a.hit_set(), b.hit_set());
        for i in 0..1000 {
            assert_eq!(a.next_hit(), b.next_hit());
            assert_eq!(a.exec_spec(i), b.exec_spec(i));
        }
        assert_ne!(
            table2_batch(7, 1),
            table2_batch(8, 1),
            "order follows the seed"
        );
        assert_ne!(degraded_points(7), degraded_points(8));
        assert_ne!(ServePlan::new(7).hit_set(), ServePlan::new(8).hit_set());
    }

    #[test]
    fn table2_covers_every_cell_once_per_copy() {
        let batch = table2_batch(3, 2);
        let cells = 4 * TABLE2_CES.len() * TABLE2_BLOCKS.len();
        assert_eq!(batch.len(), 2 * cells);
        let distinct: HashSet<String> = batch.iter().map(JobSpec::key).collect();
        assert_eq!(distinct.len(), cells);
        assert!(batch.iter().all(|s| s.validate().is_ok()));
    }

    #[test]
    fn degraded_points_all_carry_faults() {
        let points = degraded_points(5);
        assert_eq!(points.len() as u64, 2 * 2 * DEGRADED_SCHEDULES);
        for p in &points {
            assert!(matches!(p, JobSpec::Degraded { rate_ppm, .. } if *rate_ppm > 0));
            assert!(p.validate().is_ok());
        }
    }

    #[test]
    fn serve_plan_splits_exactly_into_hits_and_fresh_executes() {
        let mut plan = ServePlan::new(11);
        let hit_keys: HashSet<String> = plan.hit_set().iter().map(JobSpec::key).collect();
        assert_eq!(hit_keys.len(), SERVE_HIT_SET, "hit set is distinct");
        // Every hit request names a memoized spec ...
        for _ in 0..10_000 {
            let i = plan.next_hit();
            assert!(hit_keys.contains(&plan.hit_set()[i].key()));
        }
        // ... and every execute request a spec seen neither before nor
        // in the hit set, so each one is exactly one server execution.
        let mut seen = HashSet::new();
        for i in 0..50_000 {
            let key = plan.exec_spec(i).key();
            assert!(!hit_keys.contains(&key));
            assert!(seen.insert(key), "fresh spec {i} repeats");
        }
    }
}
