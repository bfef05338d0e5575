//! Harness of the paper-reproduction binary (`repro`): cached
//! installations, result-file output, table formatting.
//!
//! Trained installations are cached under `results/` so that each figure
//! command does not re-run the (minutes-long) training pipeline; delete
//! the JSON files to force a fresh install.

use std::fs;
use std::path::PathBuf;

use adsala::install::{InstallConfig, Installation};
use adsala::{Artifact, ModelReport};
use adsala_machine::{Affinity, GemmTimer, MachineModel, SimTimer};
use adsala_sampling::GemmShape;
use serde::{Deserialize, Serialize};

/// Which simulated machine an experiment runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Machine {
    Setonix,
    Gadi,
}

impl Machine {
    /// Parse from a CLI token.
    pub fn parse(s: &str) -> Option<Machine> {
        match s.to_ascii_lowercase().as_str() {
            "setonix" => Some(Machine::Setonix),
            "gadi" => Some(Machine::Gadi),
            _ => None,
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Machine::Setonix => "setonix",
            Machine::Gadi => "gadi",
        }
    }

    /// The machine model, with or without hyper-threading.
    pub fn model(self, ht: bool) -> MachineModel {
        let base = match self {
            Machine::Setonix => MachineModel::setonix(),
            Machine::Gadi => MachineModel::gadi(),
        };
        if ht {
            base
        } else {
            base.without_smt()
        }
    }

    /// The vendor library name the paper pairs with this machine.
    pub fn blas_name(self) -> &'static str {
        match self {
            Machine::Setonix => "BLIS",
            Machine::Gadi => "MKL",
        }
    }
}

/// Directory where CSVs and cached installs are written.
pub fn results_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("ADSALA_RESULTS_DIR") {
        return PathBuf::from(dir);
    }
    // crates/bench -> workspace root/results
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

/// Write a CSV into the results directory; returns the path.
pub fn write_csv(name: &str, header: &str, rows: &[String]) -> PathBuf {
    let dir = results_dir();
    fs::create_dir_all(&dir).expect("create results dir");
    let path = dir.join(name);
    let mut contents = String::with_capacity(rows.len() * 32 + header.len() + 1);
    contents.push_str(header);
    contents.push('\n');
    for r in rows {
        contents.push_str(r);
        contents.push('\n');
    }
    fs::write(&path, contents).expect("write csv");
    path
}

/// A cached installation: the artefact plus everything the figure
/// commands need from the training run.
#[derive(Serialize, Deserialize)]
pub struct SavedInstall {
    pub machine: String,
    pub max_threads: u32,
    pub reports: Vec<ModelReport>,
    pub selected: String,
    pub test_shapes: Vec<GemmShape>,
    pub artifact: Artifact,
}

impl SavedInstall {
    fn cache_path(machine: Machine, ht: bool) -> PathBuf {
        let suffix = if ht { "ht" } else { "noht" };
        results_dir().join(format!("install_{}_{}.json", machine.name(), suffix))
    }

    /// Load the cached installation or run a fresh one with the harness
    /// configuration.
    pub fn cached(machine: Machine, ht: bool) -> SavedInstall {
        let path = Self::cache_path(machine, ht);
        if let Ok(json) = fs::read_to_string(&path) {
            if let Ok(saved) = serde_json::from_str::<SavedInstall>(&json) {
                eprintln!("[harness] reusing cached install {}", path.display());
                return saved;
            }
            eprintln!("[harness] cache {} unreadable; re-installing", path.display());
        }
        let timer = SimTimer::new(machine.model(ht));
        eprintln!(
            "[harness] running installation on {} (ht={ht}) — this trains all model families",
            timer.name()
        );
        let install =
            Installation::run(&timer, &InstallConfig::harness()).expect("installation failed");
        let saved = SavedInstall {
            machine: install.machine.clone(),
            max_threads: install.max_threads,
            reports: install.reports.clone(),
            selected: format!("{:?}", install.selected),
            test_shapes: install.test_shapes.clone(),
            artifact: install.to_artifact(),
        };
        fs::create_dir_all(results_dir()).expect("create results dir");
        fs::write(&path, serde_json::to_string(&saved).expect("serialise install"))
            .expect("write install cache");
        eprintln!("[harness] cached install at {}", path.display());
        saved
    }
}

/// Render an ASCII horizontal histogram.
pub fn render_histogram(title: &str, edges: &[u32], counts: &[usize]) -> String {
    let max = counts.iter().copied().max().unwrap_or(1).max(1);
    let mut out = format!("{title}\n");
    let mut lo = 0u32;
    for (&edge, &count) in edges.iter().zip(counts) {
        let bar = "#".repeat((count * 50).div_ceil(max));
        out.push_str(&format!("{lo:>4}-{edge:<4} | {count:>5} {bar}\n"));
        lo = edge;
    }
    out
}

/// Render a coarse text heat-map: `values[(row, col)] -> mean` over a grid.
pub fn render_grid(
    title: &str,
    row_label: &str,
    col_label: &str,
    cells: &[Vec<Option<f64>>],
    edges: &[u64],
) -> String {
    let mut out = format!("{title}  (rows = {row_label}, cols = {col_label})\n");
    out.push_str("          ");
    for e in edges {
        out.push_str(&format!("{:>9}", format_dim(*e)));
    }
    out.push('\n');
    for (i, row) in cells.iter().enumerate() {
        out.push_str(&format!("{:>9} ", format_dim(edges[i])));
        for cell in row {
            match cell {
                Some(v) => out.push_str(&format!("{v:>9.1}")),
                None => out.push_str(&format!("{:>9}", ".")),
            }
        }
        out.push('\n');
    }
    out
}

fn format_dim(d: u64) -> String {
    if d >= 1000 {
        format!("{}k", d / 1000)
    } else {
        format!("{d}")
    }
}

/// Square-root-spaced grid edges like the paper's heat-map axes
/// (0 … 74k on a sqrt scale).
pub fn sqrt_edges(max: u64, bins: usize) -> Vec<u64> {
    (1..=bins)
        .map(|i| {
            let f = i as f64 / bins as f64;
            (f * f * max as f64).round() as u64
        })
        .collect()
}

/// Bin a value into sqrt-spaced edges.
pub fn sqrt_bin(v: u64, edges: &[u64]) -> usize {
    edges.iter().position(|&e| v <= e).unwrap_or(edges.len() - 1)
}

/// Accumulate (row, col, value) triples into a mean-per-cell grid.
pub fn grid_means(triples: &[(u64, u64, f64)], edges: &[u64]) -> Vec<Vec<Option<f64>>> {
    let n = edges.len();
    let mut sum = vec![vec![0.0f64; n]; n];
    let mut count = vec![vec![0usize; n]; n];
    for &(r, c, v) in triples {
        let (ri, ci) = (sqrt_bin(r, edges), sqrt_bin(c, edges));
        sum[ri][ci] += v;
        count[ri][ci] += 1;
    }
    (0..n)
        .map(|r| {
            (0..n)
                .map(|c| if count[r][c] > 0 { Some(sum[r][c] / count[r][c] as f64) } else { None })
                .collect()
        })
        .collect()
}

/// Mean simulated runtime of a set of shapes at a thread count — the
/// Fig. 7 y-axis.
pub fn mean_runtime<T: GemmTimer>(timer: &T, shapes: &[GemmShape], threads: u32) -> f64 {
    shapes.iter().map(|&s| timer.time(s, threads, 3)).sum::<f64>() / shapes.len() as f64
}

/// Convenience: a simulated timer for a machine/affinity/HT combination.
pub fn sim_timer(machine: Machine, ht: bool, affinity: Affinity) -> SimTimer {
    SimTimer::new(machine.model(ht).with_affinity(affinity))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn machine_parse_roundtrip() {
        assert_eq!(Machine::parse("Setonix"), Some(Machine::Setonix));
        assert_eq!(Machine::parse("GADI"), Some(Machine::Gadi));
        assert_eq!(Machine::parse("frontier"), None);
        assert_eq!(Machine::Setonix.blas_name(), "BLIS");
    }

    #[test]
    fn sqrt_edges_monotone_and_reach_max() {
        let e = sqrt_edges(74_000, 5);
        assert_eq!(*e.last().unwrap(), 74_000);
        assert!(e.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(sqrt_bin(1, &e), 0);
        assert_eq!(sqrt_bin(74_000, &e), 4);
    }

    #[test]
    fn grid_means_accumulate() {
        let edges = sqrt_edges(100, 2);
        let cells = grid_means(&[(1, 1, 2.0), (1, 1, 4.0), (100, 100, 8.0)], &edges);
        assert_eq!(cells[0][0], Some(3.0));
        assert_eq!(cells[1][1], Some(8.0));
        assert_eq!(cells[0][1], None);
    }

    #[test]
    fn histogram_rendering_contains_counts() {
        let s = render_histogram("h", &[10, 20], &[3, 7]);
        assert!(s.contains("3"));
        assert!(s.contains('#'));
    }
}
