//! Shared experiment infrastructure for the `repro` and `fkq` binaries.
//!
//! Datasets are generated deterministically and cached as store files
//! under `target/fuzzy-datasets/`, keyed by (kind, N, points-per-object,
//! seed); each experiment then opens the file store, bulk-loads the
//! R-tree, runs a batch of queries per algorithm variant and reports the
//! mean per-query costs as CSV. Throughput and latency are measured by
//! fkbench (`benchmark/`), which reports through [`json`].

#![warn(missing_docs)]

pub mod json;

use fuzzy_core::FuzzyObject;
use fuzzy_datagen::{CellConfig, DatasetKind, SyntheticConfig};
use fuzzy_index::{RTree, RTreeConfig};
use fuzzy_query::{AknnConfig, QueryEngine, QueryStats, RknnAlgorithm};
use fuzzy_store::{FileStore, ObjectStore};
use std::path::PathBuf;

/// Dataset axis of an experiment.
#[derive(Clone, Copy, Debug)]
pub struct DatasetSpec {
    /// Generator family.
    pub kind: DatasetKind,
    /// Number of objects `N`.
    pub n: usize,
    /// Points per object (the paper uses 1 000; `repro` defaults to 100,
    /// set by its `--ppo`).
    pub points_per_object: usize,
    /// Generator seed.
    pub seed: u64,
}

impl DatasetSpec {
    /// Cache file path for this spec.
    pub fn path(&self) -> PathBuf {
        let dir = PathBuf::from(
            std::env::var("FUZZY_DATASET_DIR").unwrap_or_else(|_| "target/fuzzy-datasets".into()),
        );
        dir.join(format!(
            "{}-n{}-p{}-s{:x}.fzkn",
            match self.kind {
                DatasetKind::Synthetic => "syn",
                DatasetKind::Cell => "cell",
            },
            self.n,
            self.points_per_object,
            self.seed
        ))
    }

    /// Open the cached store, generating it on first use.
    pub fn open(&self) -> FileStore<2> {
        let path = self.path();
        if path.exists() {
            if let Ok(store) = FileStore::open(&path) {
                if store.len() == self.n {
                    return store;
                }
            }
        }
        std::fs::create_dir_all(path.parent().expect("parent dir")).expect("mkdir");
        eprintln!("  [gen] {} ...", path.display());
        match self.kind {
            DatasetKind::Synthetic => {
                let cfg = self.synthetic();
                fuzzy_datagen::write_dataset(&path, cfg.generate()).expect("write dataset")
            }
            DatasetKind::Cell => {
                let cfg = self.cell();
                fuzzy_datagen::write_dataset(&path, cfg.generate()).expect("write dataset")
            }
        }
    }

    fn synthetic(&self) -> SyntheticConfig {
        SyntheticConfig {
            num_objects: self.n,
            points_per_object: self.points_per_object,
            seed: self.seed,
            ..SyntheticConfig::default()
        }
    }

    fn cell(&self) -> CellConfig {
        CellConfig {
            num_objects: self.n,
            points_per_object: self.points_per_object,
            seed: self.seed,
            ..CellConfig::default()
        }
    }

    /// Deterministic query workload drawn from the same distribution.
    pub fn queries(&self, count: usize) -> Vec<FuzzyObject<2>> {
        (0..count as u64)
            .map(|i| match self.kind {
                DatasetKind::Synthetic => self.synthetic().query_object(i + 1),
                DatasetKind::Cell => self.cell().query_object(i + 1),
            })
            .collect()
    }
}

/// A prepared experiment environment: store + index.
pub struct Env {
    /// The opened store.
    pub store: FileStore<2>,
    /// The bulk-loaded index.
    pub tree: RTree<2>,
}

impl Env {
    /// Open/generate the dataset and bulk-load the index.
    pub fn prepare(spec: &DatasetSpec) -> Env {
        let store = spec.open();
        let tree = RTree::bulk_load(store.summaries().to_vec(), RTreeConfig::default());
        Env { store, tree }
    }

    /// Query engine over this environment.
    pub fn engine(&self) -> QueryEngine<'_, RTree<2>, FileStore<2>, 2> {
        QueryEngine::new(&self.tree, &self.store)
    }

    /// Mean AKNN stats over a query batch for one variant.
    pub fn run_aknn(
        &self,
        queries: &[FuzzyObject<2>],
        k: usize,
        alpha: f64,
        cfg: &AknnConfig,
    ) -> QueryStats {
        let engine = self.engine();
        let stats: Vec<QueryStats> =
            queries.iter().map(|q| engine.aknn(q, k, alpha, cfg).expect("aknn").stats).collect();
        QueryStats::mean(&stats)
    }

    /// Mean RKNN stats over a query batch for one algorithm.
    pub fn run_rknn(
        &self,
        queries: &[FuzzyObject<2>],
        k: usize,
        range: (f64, f64),
        algo: RknnAlgorithm,
        cfg: &AknnConfig,
    ) -> QueryStats {
        let engine = self.engine();
        let stats: Vec<QueryStats> = queries
            .iter()
            .map(|q| engine.rknn(q, k, range.0, range.1, algo, cfg).expect("rknn").stats)
            .collect();
        QueryStats::mean(&stats)
    }
}

/// A CSV-ish output table with aligned console rendering.
pub struct Table {
    /// Column headers.
    pub header: Vec<String>,
    /// Rows of cells.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with the given header.
    pub fn new(header: &[&str]) -> Self {
        Self { header: header.iter().map(|s| s.to_string()).collect(), rows: Vec::new() }
    }

    /// Append a row.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Render as CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.header.join(","));
        out.push('\n');
        for r in &self.rows {
            out.push_str(&r.join(","));
            out.push('\n');
        }
        out
    }

    /// Render aligned for the console.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells.iter().zip(widths).map(|(c, w)| format!("{c:>w$}")).collect::<Vec<_>>().join("  ")
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        for r in &self.rows {
            out.push_str(&fmt_row(r, &widths));
            out.push('\n');
        }
        out
    }

    /// Print to console and persist CSV under `experiments/<name>.csv`.
    pub fn emit(&self, name: &str) {
        println!("\n== {name} ==");
        print!("{}", self.render());
        let dir = PathBuf::from(
            std::env::var("FUZZY_EXPERIMENT_DIR").unwrap_or_else(|_| "experiments".into()),
        );
        std::fs::create_dir_all(&dir).expect("mkdir experiments");
        let path = dir.join(format!("{name}.csv"));
        std::fs::write(&path, self.to_csv()).expect("write csv");
        println!("  -> {}", path.display());
    }
}

/// Milliseconds with two decimals.
pub fn ms(stats: &QueryStats) -> String {
    format!("{:.2}", stats.wall.as_secs_f64() * 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuzzy_index::NodeAccess;

    /// Serializes every test here that reads or writes the
    /// `FUZZY_DATASET_DIR` process environment variable: concurrent
    /// `setenv`/`getenv` from parallel test threads is undefined behavior on
    /// glibc. Hold the returned guard for the whole test body.
    fn dataset_dir_test_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    #[test]
    fn table_render_and_csv() {
        let mut t = Table::new(&["a", "bb"]);
        t.row(vec!["1".into(), "2".into()]);
        assert_eq!(t.to_csv(), "a,bb\n1,2\n");
        assert!(t.render().contains("bb"));
    }

    #[test]
    fn spec_paths_distinguish_parameters() {
        let _env = dataset_dir_test_lock(); // path() reads the env var
        let a =
            DatasetSpec { kind: DatasetKind::Synthetic, n: 100, points_per_object: 50, seed: 1 };
        let b = DatasetSpec { n: 200, ..a };
        assert_ne!(a.path(), b.path());
        let c = DatasetSpec { kind: DatasetKind::Cell, ..a };
        assert_ne!(a.path(), c.path());
    }

    #[test]
    fn end_to_end_small_experiment() {
        let _env = dataset_dir_test_lock();
        std::env::set_var("FUZZY_DATASET_DIR", std::env::temp_dir().join("fzkn-bench-test"));
        let spec =
            DatasetSpec { kind: DatasetKind::Synthetic, n: 60, points_per_object: 40, seed: 5 };
        let env = Env::prepare(&spec);
        assert_eq!(env.tree.len(), 60);
        let queries = spec.queries(2);
        // The full optimization stack may confirm every result from bounds
        // alone (zero probes); the basic variant always probes.
        let stats = env.run_aknn(&queries, 5, 0.5, &AknnConfig::lb_lp_ub());
        assert!(stats.node_accesses > 0);
        let basic = env.run_aknn(&queries, 5, 0.5, &AknnConfig::basic());
        assert!(basic.object_accesses > 0);
        assert!(stats.object_accesses <= basic.object_accesses);
        let rstats =
            env.run_rknn(&queries, 3, (0.4, 0.6), RknnAlgorithm::RssIcr, &AknnConfig::lb_lp_ub());
        assert!(rstats.object_accesses > 0);
    }
}
