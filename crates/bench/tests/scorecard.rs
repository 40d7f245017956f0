//! The paper's evaluation (§6) and its cost model (§5, Eq. 8) as one
//! pinned scorecard.
//!
//! Each test runs one section's sweeps on data built in memory, sums every
//! logical counter of [`QueryStats`] over the section's queries (wall time
//! and buffer-pool misses are not logical), and judges the paper's shapes
//! on those sums. A shape the data do not show reads `finding`; it fails
//! nothing. What fails is a section that differs from the committed
//! `REPRO.json`: the test then prints the whole file with the fresh section
//! in place, and a deliberate re-pin copies that output over the file.
//!
//! The synthetic data use σ = 0.2 rather than the paper's 0.5. At σ = 0.5
//! every membership lies above e^(−1/2) ≈ 0.61, so a cut at the default
//! α = 0.5, or anywhere below 0.61, keeps every point and the α-sensitive
//! bounds have nothing to prune. At σ = 0.2 the floor is about 0.04.

use fuzzy_analysis::{eq8_object_accesses, gaussian_disk_radius, CostModelParams};
use fuzzy_bench::json::Json;
use fuzzy_core::FuzzyObject;
use fuzzy_datagen::{CellConfig, SyntheticConfig};
use fuzzy_index::{NodeAccess, RTree, RTreeConfig};
use fuzzy_query::{AknnConfig, QueryEngine, QueryStats, RknnAlgorithm};
use fuzzy_store::{MemStore, ObjectStore};

const POINTS_PER_OBJECT: usize = 48;
const SIGMA: f64 = 0.2;
const AKNN_QUERIES: u64 = 6;
const RKNN_QUERIES: u64 = 3;
// The paper's Table 2 defaults; N is scaled down to 2 000 (AKNN) and 500
// (RKNN).
const K: usize = 20;
const ALPHA: f64 = 0.5;
const NS: [usize; 4] = [500, 1_000, 2_000, 4_000];
const KS: [usize; 4] = [5, 10, 20, 50];
const ALPHAS: [f64; 4] = [0.3, 0.5, 0.7, 0.9];
/// Range lengths `L` of the RKNN sweep, each centred on α = 0.5.
const LS: [f64; 4] = [0.05, 0.1, 0.2, 0.5];

/// One dataset in memory with its query workload.
struct Data {
    store: MemStore<2>,
    tree: RTree<2>,
    queries: Vec<FuzzyObject<2>>,
}

fn synthetic_config(n: usize) -> SyntheticConfig {
    SyntheticConfig {
        num_objects: n,
        points_per_object: POINTS_PER_OBJECT,
        sigma: SIGMA,
        ..SyntheticConfig::default()
    }
}

fn synthetic(n: usize, queries: u64) -> Data {
    let cfg = synthetic_config(n);
    Data::new(cfg.generate(), (1..=queries).map(|i| cfg.query_object(i)).collect())
}

fn cell(n: usize, queries: u64) -> Data {
    let cfg = CellConfig {
        num_objects: n,
        points_per_object: POINTS_PER_OBJECT,
        ..CellConfig::default()
    };
    Data::new(cfg.generate(), (1..=queries).map(|i| cfg.query_object(i)).collect())
}

impl Data {
    fn new(objects: impl Iterator<Item = FuzzyObject<2>>, queries: Vec<FuzzyObject<2>>) -> Data {
        let store = MemStore::from_objects(objects).expect("generated objects encode");
        let tree = RTree::bulk_load(store.summaries().to_vec(), RTreeConfig::default());
        Data { store, tree, queries }
    }

    /// Counters of one AKNN variant, summed over the queries.
    fn aknn(&self, k: usize, alpha: f64, cfg: &AknnConfig) -> QueryStats {
        let engine = QueryEngine::new(&self.tree, &self.store);
        let mut sum = QueryStats::default();
        for q in &self.queries {
            sum += engine.aknn(q, k, alpha, cfg).expect("aknn").stats;
        }
        sum
    }

    /// Counters of one RKNN algorithm over `[0.5 − L/2, 0.5 + L/2]`,
    /// summed over the queries.
    fn rknn(&self, l: f64, algo: RknnAlgorithm) -> QueryStats {
        let engine = QueryEngine::new(&self.tree, &self.store);
        let (start, end) = (ALPHA - l / 2.0, ALPHA + l / 2.0);
        let mut sum = QueryStats::default();
        for q in &self.queries {
            sum +=
                engine.rknn(q, K, start, end, algo, &AknnConfig::lb_lp_ub()).expect("rknn").stats;
        }
        sum
    }
}

fn counters(s: &QueryStats) -> Json {
    Json::obj(vec![
        ("object_accesses", Json::num(s.object_accesses as f64)),
        ("node_accesses", Json::num(s.node_accesses as f64)),
        ("distance_evals", Json::num(s.distance_evals as f64)),
        ("profile_computations", Json::num(s.profile_computations as f64)),
        ("bound_evals", Json::num(s.bound_evals as f64)),
        ("aknn_calls", Json::num(s.aknn_calls as f64)),
        ("candidates", Json::num(s.candidates as f64)),
    ])
}

/// One sweep: its rows as JSON and each row's object accesses per
/// variant, in the variants' order.
#[derive(Default)]
struct Sweep {
    rows: Vec<Json>,
    accesses: Vec<Vec<u64>>,
}

impl Sweep {
    fn push(&mut self, axes: Vec<(&str, Json)>, runs: &[(&str, QueryStats)]) {
        self.accesses.push(runs.iter().map(|(_, s)| s.object_accesses).collect());
        let mut row = axes;
        row.extend(runs.iter().map(|(name, s)| (*name, counters(s))));
        self.rows.push(Json::obj(row));
    }

    /// A row of the four AKNN variants.
    fn aknn_row(&mut self, data: &Data, k: usize, alpha: f64) {
        let runs: Vec<_> = AknnConfig::paper_variants()
            .iter()
            .map(|cfg| (cfg.variant_name(), data.aknn(k, alpha, cfg)))
            .collect();
        let axes = vec![
            ("n", Json::num(data.tree.len() as f64)),
            ("k", Json::num(k as f64)),
            ("alpha", Json::num(alpha)),
        ];
        self.push(axes, &runs);
    }

    /// A row of the three RKNN algorithms at range length `l`.
    fn rknn_row(&mut self, data: &Data, l: f64) {
        let runs: Vec<_> = RknnAlgorithm::paper_variants()
            .iter()
            .map(|&algo| (algo.name(), data.rknn(l, algo)))
            .collect();
        let axes = vec![
            ("n", Json::num(data.tree.len() as f64)),
            ("k", Json::num(K as f64)),
            ("L", Json::num(l)),
        ];
        self.push(axes, &runs);
    }

    /// Object accesses of variant `v` down the sweep.
    fn column(&self, v: usize) -> Vec<u64> {
        self.accesses.iter().map(|row| row[v]).collect()
    }

    /// Every row orders its variants from most to fewest accesses.
    fn ordered(&self) -> bool {
        self.accesses.iter().all(|row| never_rises(row))
    }
}

fn never_falls(xs: &[u64]) -> bool {
    xs.windows(2).all(|w| w[0] <= w[1])
}

fn never_rises(xs: &[u64]) -> bool {
    xs.windows(2).all(|w| w[0] >= w[1])
}

fn verdict(held: bool) -> Json {
    Json::str(if held { "held" } else { "finding" })
}

/// Per variant: its accesses never fall down `sweep`, whose axis is `axis`.
fn growth(name: &str, axis: &str, sweep: &Sweep, shapes: &mut Vec<(String, Json)>) {
    for (v, cfg) in AknnConfig::paper_variants().iter().enumerate() {
        shapes.push((
            format!("{name}: {} accesses never fall as {axis} grows", cfg.variant_name()),
            verdict(never_falls(&sweep.column(v))),
        ));
    }
}

/// The k sweep (at α 0.5) and the α sweep (at k 20) of one dataset, and
/// their shapes.
fn k_and_alpha(name: &str, data: &Data, shapes: &mut Vec<(String, Json)>) -> Vec<(String, Json)> {
    let mut by_k = Sweep::default();
    for k in KS {
        by_k.aknn_row(data, k, ALPHA);
    }
    let mut by_alpha = Sweep::default();
    for alpha in ALPHAS {
        by_alpha.aknn_row(data, K, alpha);
    }
    shapes.push((
        format!("{name}: accesses Basic >= LB >= LB-LP >= LB-LP-UB on every row"),
        verdict(by_k.ordered() && by_alpha.ordered()),
    ));
    growth(name, "k", &by_k, shapes);
    shapes.push((
        format!("{name}: Basic accesses never fall as alpha grows"),
        verdict(never_falls(&by_alpha.column(0))),
    ));
    shapes.push((
        format!("{name}: LB-LP-UB accesses never rise as alpha grows"),
        verdict(never_rises(&by_alpha.column(3))),
    ));
    vec![("k".to_string(), Json::Arr(by_k.rows)), ("alpha".to_string(), Json::Arr(by_alpha.rows))]
}

/// Holds `section` of `REPRO.json` to `fresh`, byte for byte.
fn pin(section: &str, fresh: Json) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/REPRO.json");
    let committed = std::fs::read_to_string(path).expect("read REPRO.json");
    let Json::Obj(mut sections) = Json::parse(&committed).expect("REPRO.json parses") else {
        panic!("REPRO.json is not a JSON object");
    };
    match sections.iter_mut().find(|(key, _)| key == section) {
        Some((_, value)) => *value = fresh,
        None => sections.push((section.to_string(), fresh)),
    }
    let expected = Json::Obj(sections).to_pretty();
    if expected != committed {
        println!("{expected}");
        panic!(
            "the scorecard's \"{section}\" section differs from REPRO.json; \
             the file it expects is printed above"
        );
    }
}

/// Figures 11a–c and 15: AKNN object accesses of the four variants
/// against N, k and α, on both datasets.
#[test]
fn aknn_section() {
    let mut shapes = Vec::new();
    let mut by_n = Sweep::default();
    for n in NS {
        by_n.aknn_row(&synthetic(n, AKNN_QUERIES), K, ALPHA);
    }
    shapes.push((
        "synthetic: accesses Basic >= LB >= LB-LP >= LB-LP-UB on every N row".to_string(),
        verdict(by_n.ordered()),
    ));
    growth("synthetic", "N", &by_n, &mut shapes);
    let mut syn = vec![("n".to_string(), Json::Arr(by_n.rows))];
    syn.extend(k_and_alpha("synthetic", &synthetic(2_000, AKNN_QUERIES), &mut shapes));
    let cell = k_and_alpha("cell", &cell(2_000, AKNN_QUERIES), &mut shapes);
    pin(
        "aknn",
        Json::obj(vec![
            ("synthetic", Json::Obj(syn)),
            ("cell", Json::Obj(cell)),
            ("shapes", Json::Obj(shapes)),
        ]),
    );
}

/// Figure 13c: RKNN object accesses of Basic RKNN, RSS and RSS-ICR
/// against the range length L, on both datasets.
#[test]
fn rknn_section() {
    let mut shapes = Vec::new();
    let mut section = Vec::new();
    for (name, data) in
        [("synthetic", synthetic(500, RKNN_QUERIES)), ("cell", cell(500, RKNN_QUERIES))]
    {
        let mut by_l = Sweep::default();
        for l in LS {
            by_l.rknn_row(&data, l);
        }
        let (basic, rss) = (by_l.column(0), by_l.column(1));
        let saving: Vec<u64> = basic.iter().zip(&rss).map(|(b, r)| b.saturating_sub(*r)).collect();
        shapes.push((
            format!("{name}: accesses Basic RKNN >= RSS >= RSS-ICR on every row"),
            verdict(by_l.ordered()),
        ));
        shapes.push((
            format!("{name}: Basic RKNN accesses never fall as L grows"),
            verdict(never_falls(&basic)),
        ));
        shapes.push((
            format!("{name}: RSS's saving over Basic RKNN never falls as L grows"),
            verdict(never_falls(&saving)),
        ));
        section.push((name.to_string(), Json::Arr(by_l.rows)));
    }
    section.push(("shapes".to_string(), Json::Obj(shapes)));
    pin("rknn", Json::Obj(section));
}

/// §5: Eq. 8's object-access estimate, on the unit square the model is
/// derived on, against the measured Basic AKNN per α.
#[test]
fn eq8_section() {
    let n = 2_000;
    let cfg = synthetic_config(n);
    let data = synthetic(n, AKNN_QUERIES);
    let c_avg = n as f64 / data.tree.leaf_count().expect("an image has its leaves") as f64;
    let params = CostModelParams { num_objects: n, k: K, c_avg };
    let (mut within, mut above_floor) = (true, true);
    let mut rows = Vec::new();
    for alpha in ALPHAS {
        let radius = gaussian_disk_radius(alpha, cfg.sigma / cfg.space, cfg.radius / cfg.space);
        let model = eq8_object_accesses(&params, radius);
        let basic = data.aknn(K, alpha, &AknnConfig::basic());
        let measured = basic.object_accesses as f64 / AKNN_QUERIES as f64;
        within &= model <= 2.0 * measured && measured <= 2.0 * model;
        above_floor &= model > K as f64;
        rows.push(Json::obj(vec![
            ("alpha", Json::num(alpha)),
            ("eq8", Json::num(model)),
            ("Basic", counters(&basic)),
        ]));
    }
    let shapes = Json::obj(vec![
        ("Eq. 8 within 2x of the measured Basic per query at every alpha", verdict(within)),
        ("Eq. 8 above its clamp floor k at every alpha", verdict(above_floor)),
    ]);
    pin(
        "eq8",
        Json::obj(vec![
            ("n", Json::num(n as f64)),
            ("k", Json::num(K as f64)),
            ("queries", Json::num(AKNN_QUERIES as f64)),
            ("c_avg", Json::num(c_avg)),
            ("rows", Json::Arr(rows)),
            ("shapes", shapes),
        ]),
    );
}
