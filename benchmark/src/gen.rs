//! Set-up: seeded data, the tick stream, statements with thresholds
//! taken from exact quantiles of that data, request schedules, and the
//! exact reference values answers are checked against. The time this
//! takes is the benchmark's own cost, reported as `setup_s`.

use crate::spec::Spec;
use crate::stats::{fnv1a_from, Rng, Zipf, FNV_OFFSET};
use crate::sut::{self, Dataset, Matrix, Stmt, LOCATION, PAIRWISE};

/// The three statement classes. Each runs as its own stream so that each
/// median is unimodal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Three in four: pairwise MET/MER returning ≤ 48 rows. One in four:
    /// `MEC <location> OF` 2–4 Zipf-picked series or a location MET/MER.
    /// The median therefore sits inside the pairwise mode.
    Point,
    /// MET/MER returning ≈ 10 % of all pairs.
    Scan,
    /// `MEC <pairwise> OF` 16 Zipf-picked series (a 16×16 matrix).
    Mec,
}

pub const CLASSES: [Class; 3] = [Class::Point, Class::Mec, Class::Scan];

/// Distinct statements per class that the streams draw from.
const POOL_POINT: usize = 256;
const POOL_MEC: usize = 256;
const POOL_SCAN: usize = 12;

impl Class {
    pub fn name(self) -> &'static str {
        match self {
            Class::Point => "point",
            Class::Scan => "scan",
            Class::Mec => "mec",
        }
    }

    /// Name of the span one request of this class's stream records.
    pub fn span(self) -> &'static str {
        match self {
            Class::Point => "serve.point",
            Class::Scan => "serve.scan",
            Class::Mec => "serve.mec",
        }
    }
}

/// What the exact kernels say a statement's answer is.
#[derive(Debug, Clone, PartialEq)]
pub enum Expected {
    /// MET/MER over pairs: ranks of the qualifying pairs, ascending.
    Pairs(Vec<u32>),
    /// MET/MER over series: qualifying ids, ascending.
    Series(Vec<u32>),
    /// MEC: the values in the order the answer prints them.
    Values(Vec<f64>),
}

#[derive(Debug, Clone)]
pub struct Pool {
    pub class: Class,
    pub stmts: Vec<Stmt>,
    /// `q <statement>\n`, ready to write.
    pub lines: Vec<Vec<u8>>,
    pub expected: Vec<Expected>,
    /// The latency pass: indices into `stmts` in send order, for its one
    /// client.
    pub latency: Vec<u32>,
    /// The throughput pass: the same number of statements dealt out to
    /// the workload's clients. Empty when there is one client only (the
    /// latency pass is then the throughput pass too).
    pub load: Vec<Vec<u32>>,
}

#[derive(Debug)]
pub struct Setup {
    /// The model's window: `n` series × `m` samples.
    pub base: Matrix,
    /// `base` followed by the tick stream; tick `t` is sample `t`.
    pub replay: Matrix,
    pub pools: Vec<Pool>,
}

impl Setup {
    pub fn pool(&self, class: Class) -> &Pool {
        self.pools
            .iter()
            .find(|p| p.class == class)
            .expect("every class has a pool")
    }

    /// Digests of every generated input: window data, tick stream,
    /// statement texts (and so every threshold), and schedules.
    pub fn digest(&self) -> [u64; 4] {
        let mut stmts = FNV_OFFSET;
        let mut sched = FNV_OFFSET;
        for p in &self.pools {
            for l in &p.lines {
                stmts = fnv1a_from(stmts, l);
            }
            for s in p.latency.iter().chain(p.load.iter().flatten()) {
                sched = fnv1a_from(sched, &s.to_le_bytes());
            }
        }
        [self.base.digest(), self.replay.digest(), stmts, sched]
    }
}

/// Rank of pair `u < v` in lexicographic order over `n` series.
pub fn pair_rank(n: usize, u: usize, v: usize) -> usize {
    u * (2 * n - u - 1) / 2 + (v - u - 1)
}

/// Share of sensors that drift (a step up of a quarter of their standard
/// deviation per batch). Below the engine's 25 % fallback, so refreshes
/// take the delta path and re-fit the pairs touching these series; the
/// staleness cap then forces every ninth refresh to a full rebuild.
const DRIFT_SHARE: f64 = 0.10;
const DRIFT_STEP_SD: f64 = 0.25;

/// The data and the ticks that follow it.
///
/// *Stock*: one random walk of `m + ticks` samples; prices wander, so
/// every series drifts and each refresh is a full rebuild. *Sensor*: the
/// generator makes one day of `m` samples (its diurnal cycle is scaled
/// to the series length, so a longer generation would flatten the
/// window); the stream replays that day, and a seeded tenth of the
/// sensors drift upwards batch by batch.
fn data(spec: &Spec, seed: u64) -> (Matrix, Matrix) {
    let (n, m, ticks) = (spec.n, spec.m, spec.stream_ticks());
    match spec.dataset {
        Dataset::Stock => {
            let replay = Matrix::from_columns(sut::generate(Dataset::Stock, n, m + ticks, seed));
            (replay.head(m), replay)
        }
        Dataset::Sensor => {
            let day = sut::generate(Dataset::Sensor, n, m, seed);
            let mut rng = Rng::fork(seed, "drift");
            let mut order: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                order.swap(i, rng.below(i + 1));
            }
            let drifting = &order[..((n as f64 * DRIFT_SHARE).round() as usize).max(1)];
            let every = spec.refresh_every as usize;
            let columns = day
                .iter()
                .enumerate()
                .map(|(v, col)| {
                    let step = if drifting.contains(&v) {
                        let mean = col.iter().sum::<f64>() / m as f64;
                        let var =
                            col.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / m as f64;
                        var.sqrt() * DRIFT_STEP_SD
                    } else {
                        0.0
                    };
                    let mut out = col.clone();
                    out.extend((0..ticks).map(|t| col[t % m] + step * (1 + t / every) as f64));
                    out
                })
                .collect();
            (Matrix::from_columns(day), Matrix::from_columns(columns))
        }
    }
}

/// Exact values of one measure, and the same sorted, for quantiles.
struct Exact {
    values: Vec<f64>,
    sorted: Vec<f64>,
}

impl Exact {
    fn new(values: Vec<f64>) -> Exact {
        let sorted = crate::stats::sorted(values.clone());
        Exact { values, sorted }
    }

    fn between(&self, i: usize) -> f64 {
        (self.sorted[i - 1] + self.sorted[i]) / 2.0
    }

    /// A MET or MER on this measure that exactly `k` values satisfy
    /// (ties aside): the top `k`, the bottom `k`, or `k` in a row from a
    /// seeded position.
    fn statement(&self, measure: &'static str, k: usize, rng: &mut Rng) -> Stmt {
        let len = self.sorted.len();
        let k = k.clamp(1, len - 2);
        match rng.below(3) {
            0 => Stmt::Met {
                measure,
                greater: true,
                tau: self.between(len - k),
            },
            1 => Stmt::Met {
                measure,
                greater: false,
                tau: self.between(k),
            },
            _ => {
                let start = rng.between(1, len - k - 1);
                Stmt::Mer {
                    measure,
                    lo: self.between(start),
                    hi: self.between(start + k),
                }
            }
        }
    }

    /// Indices whose exact value satisfies `stmt`, ascending.
    fn qualifying(&self, stmt: &Stmt) -> Vec<u32> {
        let keep: Box<dyn Fn(f64) -> bool> = match *stmt {
            Stmt::Met {
                greater: true, tau, ..
            } => Box::new(move |x| x > tau),
            Stmt::Met {
                greater: false,
                tau,
                ..
            } => Box::new(move |x| x < tau),
            Stmt::Mer { lo, hi, .. } => Box::new(move |x| lo < x && x < hi),
            Stmt::Mec { .. } => unreachable!("MEC has values, not a qualifying set"),
        };
        (0..self.values.len() as u32)
            .filter(|&i| keep(self.values[i as usize]))
            .collect()
    }
}

struct Refs<'a> {
    base: &'a Matrix,
    pairwise: Vec<Exact>,
    location: Vec<Exact>,
}

impl Refs<'_> {
    fn of(&self, measure: &str) -> &Exact {
        match PAIRWISE.iter().position(|m| *m == measure) {
            Some(i) => &self.pairwise[i],
            None => {
                &self.location[LOCATION
                    .iter()
                    .position(|m| *m == measure)
                    .expect("known measure")]
            }
        }
    }

    fn expected(&self, stmt: &Stmt) -> Expected {
        let n = self.base.n();
        match stmt {
            Stmt::Mec { measure, ids } if stmt.is_pairwise() => {
                let exact = self.of(measure);
                let mut out = Vec::with_capacity(ids.len() * ids.len());
                for &a in ids {
                    for &b in ids {
                        out.push(if a == b {
                            sut::exact_pairwise_self(measure, self.base.series(a))
                        } else {
                            exact.values[pair_rank(n, a.min(b), a.max(b))]
                        });
                    }
                }
                Expected::Values(out)
            }
            Stmt::Mec { measure, ids } => {
                Expected::Values(ids.iter().map(|&v| self.of(measure).values[v]).collect())
            }
            Stmt::Met { measure, .. } | Stmt::Mer { measure, .. } => {
                let hits = self.of(measure).qualifying(stmt);
                if stmt.is_pairwise() {
                    Expected::Pairs(hits)
                } else {
                    Expected::Series(hits)
                }
            }
        }
    }
}

fn statements(class: Class, count: usize, refs: &Refs<'_>, rng: &mut Rng) -> Vec<Stmt> {
    let n = refs.base.n();
    let pairs = refs.base.pairs();
    let zipf = Zipf::new(n);
    let pairwise = |k: usize, rng: &mut Rng| {
        let i = rng.below(PAIRWISE.len());
        refs.pairwise[i].statement(PAIRWISE[i], k, rng)
    };
    (0..count)
        .map(|j| match class {
            Class::Point if j % 4 != 3 => {
                let k = rng.between(1, 48);
                pairwise(k, rng)
            }
            Class::Point => {
                let i = rng.below(LOCATION.len());
                if rng.below(2) == 0 {
                    let k = rng.between(2, 4);
                    let ids = zipf.distinct(rng, k);
                    Stmt::Mec {
                        measure: LOCATION[i],
                        ids,
                    }
                } else {
                    let k = rng.between(1, (n / 4).clamp(1, 48));
                    refs.location[i].statement(LOCATION[i], k, rng)
                }
            }
            Class::Scan => pairwise(pairs / 10, rng),
            Class::Mec => Stmt::Mec {
                measure: PAIRWISE[rng.below(PAIRWISE.len())],
                ids: zipf.distinct(rng, 16.min(n)),
            },
        })
        .collect()
}

/// Everything a run needs, made from `seed` alone.
pub fn setup(spec: &Spec, seed: u64) -> Setup {
    let (base, replay) = data(spec, seed);
    let refs = Refs {
        base: &base,
        pairwise: PAIRWISE
            .iter()
            .map(|m| Exact::new(sut::exact_pairwise_all(m, &base)))
            .collect(),
        location: LOCATION
            .iter()
            .map(|m| Exact::new(sut::exact_location_all(m, &base)))
            .collect(),
    };
    let pools = CLASSES
        .iter()
        .map(|&class| {
            let (pool_size, total) = match class {
                Class::Point => (POOL_POINT, spec.point),
                Class::Mec => (POOL_MEC, spec.mec),
                Class::Scan => (POOL_SCAN, spec.scan),
            };
            let mut rng = Rng::fork(seed, class.name());
            let stmts = statements(class, pool_size, &refs, &mut rng);
            let lines = stmts
                .iter()
                .map(|s| format!("q {}\n", s.text()).into_bytes())
                .collect();
            let expected = stmts.iter().map(|s| refs.expected(s)).collect();
            let mut draw = |count: usize| (0..count).map(|_| rng.below(pool_size) as u32).collect();
            let latency = draw(total);
            let load = match spec.clients {
                1 => Vec::new(),
                clients => (0..clients)
                    .map(|_| draw(total.div_ceil(clients)))
                    .collect(),
            };
            Pool {
                class,
                stmts,
                lines,
                expected,
                latency,
                load,
            }
        })
        .collect();
    Setup {
        base,
        replay,
        pools,
    }
}
