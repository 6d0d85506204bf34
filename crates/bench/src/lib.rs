//! Shared harness for the experiment binaries.
//!
//! One binary per table/figure of the paper lives in `src/bin/`
//! (`exp_table1` … `exp_fig8`, `exp_casestudy`). They share this crate's
//! [`NasLab`] / [`NrLab`] contexts, which run the expensive common stages
//! once: reference profiling (Steps A+B), GA feature training on the
//! Numerical Recipes suite, ground-truth target runs, and the
//! microbenchmark measurement cache.
//!
//! Every binary accepts:
//!
//! * `--class test|a|b` — dataset class (default `a`; the paper-scale runs
//!   use `b`),
//! * `--quick` — shrink expensive searches (GA population, random-
//!   clustering samples),
//! * `--paper-features` — cluster on the paper's Table 2 feature list
//!   instead of the locally GA-trained set.

pub mod barometer;

use fgbs_analysis::{table2_features, FeatureMask};
use fgbs_core::{
    profile_reference, profile_targets, select_features_ga, MicroCache, PipelineConfig,
    ProfiledSuite,
};
use fgbs_extract::AppRun;
use fgbs_genetic::GaConfig;
use fgbs_machine::{Arch, PARK_SCALE};
use fgbs_suites::{nas_suite, nr_suite, Class};

/// Command-line options shared by all experiment binaries.
#[derive(Debug, Clone)]
pub struct Options {
    /// Dataset class.
    pub class: Class,
    /// Shrink expensive searches.
    pub quick: bool,
    /// Use the paper's Table 2 feature list instead of training a set.
    pub paper_features: bool,
}

impl Options {
    /// Parse `std::env::args`.
    ///
    /// # Panics
    ///
    /// Panics with a usage message on unknown arguments.
    pub fn from_args() -> Options {
        let mut o = Options {
            class: Class::A,
            quick: false,
            paper_features: false,
        };
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            match a.as_str() {
                "--class" => {
                    let v = args.next().unwrap_or_default();
                    let name = v.to_ascii_lowercase();
                    o.class = Class::from_name(&name)
                        .unwrap_or_else(|| panic!("unknown class `{name}` (test|a|b)"));
                }
                "--quick" => o.quick = true,
                "--paper-features" => o.paper_features = true,
                "--help" | "-h" => {
                    println!("usage: [--class test|a|b] [--quick] [--paper-features]");
                    std::process::exit(0);
                }
                other => panic!("unknown argument `{other}`"),
            }
        }
        o
    }
}

/// The feature mask the experiments cluster with: by default a set trained
/// with the paper's GA recipe on the NR suite (Atom + Sandy Bridge,
/// fitness `max(err) × K`), falling back to the paper's own Table 2 list
/// with `--paper-features`.
pub fn experiment_features(opts: &Options, cfg: &PipelineConfig) -> FeatureMask {
    if opts.paper_features {
        return FeatureMask::from_ids(&table2_features());
    }
    let nr = profile_reference(&nr_suite(opts.class), cfg);
    let train = vec![
        Arch::atom().scaled(PARK_SCALE),
        Arch::sandy_bridge().scaled(PARK_SCALE),
    ];
    let ga = if opts.quick {
        GaConfig {
            population: 40,
            generations: 12,
            seed: 1,
            ..GaConfig::default()
        }
    } else {
        GaConfig {
            population: 80,
            generations: 30,
            seed: 1,
            ..GaConfig::default()
        }
    };
    select_features_ga(&nr, &train, &ga, cfg).mask
}

/// Shared context for NAS experiments.
#[derive(Debug)]
pub struct NasLab {
    /// Options the lab was built with.
    pub opts: Options,
    /// Pipeline configuration (clustering features already set).
    pub cfg: PipelineConfig,
    /// The profiled NAS suite (Steps A+B done).
    pub suite: ProfiledSuite,
    /// Shared microbenchmark measurement cache.
    pub cache: MicroCache,
    /// The three scaled targets.
    pub targets: Vec<Arch>,
    /// Ground-truth full runs, aligned with `targets`.
    pub runs: Vec<Vec<AppRun>>,
}

impl NasLab {
    /// Build the lab: profile NAS on the reference, train features, run
    /// the ground truth on every target.
    pub fn new(opts: Options) -> NasLab {
        let base = PipelineConfig::default();
        let features = experiment_features(&opts, &base);
        let cfg = base.with_features(features);
        eprintln!("[lab] profiling NAS (class {:?}) on {}…", opts.class, cfg.reference.name);
        let suite = profile_reference(&nas_suite(opts.class), &cfg);
        let targets = Arch::targets_scaled();
        eprintln!("[lab] ground-truth runs on {} targets…", targets.len());
        let runs = profile_targets(&suite, &targets, &cfg);
        NasLab {
            opts,
            cfg,
            suite,
            cache: MicroCache::new(),
            targets,
            runs,
        }
    }
}

/// Shared context for NR experiments.
#[derive(Debug)]
pub struct NrLab {
    /// Options the lab was built with.
    pub opts: Options,
    /// Pipeline configuration.
    pub cfg: PipelineConfig,
    /// The profiled NR suite.
    pub suite: ProfiledSuite,
    /// Shared microbenchmark measurement cache.
    pub cache: MicroCache,
    /// Atom and Sandy Bridge (the NR evaluation targets).
    pub targets: Vec<Arch>,
    /// Ground-truth runs, aligned with `targets`.
    pub runs: Vec<Vec<AppRun>>,
}

impl NrLab {
    /// Build the NR lab (profiles the 28 codes, runs Atom + Sandy Bridge
    /// ground truth).
    pub fn new(opts: Options) -> NrLab {
        let base = PipelineConfig::default();
        let features = experiment_features(&opts, &base);
        let cfg = base.with_features(features);
        eprintln!("[lab] profiling NR (class {:?})…", opts.class);
        let suite = profile_reference(&nr_suite(opts.class), &cfg);
        let targets = vec![
            Arch::atom().scaled(PARK_SCALE),
            Arch::sandy_bridge().scaled(PARK_SCALE),
        ];
        let runs = profile_targets(&suite, &targets, &cfg);
        NrLab {
            opts,
            cfg,
            suite,
            cache: MicroCache::new(),
            targets,
            runs,
        }
    }
}

/// Render a fixed-width text table. When the `FGBS_CSV_DIR` environment
/// variable is set, the table is additionally written as a CSV file named
/// after a slug of the title (for plotting pipelines).
pub fn render_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    if let Ok(dir) = std::env::var("FGBS_CSV_DIR") {
        if let Err(e) = write_csv(&dir, title, headers, rows) {
            eprintln!("[warn] could not write CSV for `{title}`: {e}");
        }
    }
    println!("\n== {title} ==");
    let ncols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for r in rows {
        assert_eq!(r.len(), ncols, "row width mismatch in `{title}`");
        for (i, c) in r.iter().enumerate() {
            widths[i] = widths[i].max(c.len());
        }
    }
    let line = |cells: Vec<String>| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!("{:>w$}  ", c, w = widths[i]));
        }
        println!("{}", s.trim_end());
    };
    line(headers.iter().map(|h| h.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for r in rows {
        line(r.clone());
    }
}

fn write_csv(
    dir: &str,
    title: &str,
    headers: &[&str],
    rows: &[Vec<String>],
) -> std::io::Result<()> {
    use std::io::Write;
    let slug: String = title
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c.to_ascii_lowercase() } else { '_' })
        .collect::<String>()
        .split('_')
        .filter(|s| !s.is_empty())
        .collect::<Vec<_>>()
        .join("_");
    std::fs::create_dir_all(dir)?;
    let mut f = std::fs::File::create(format!("{dir}/{slug}.csv"))?;
    let quote = |s: &str| {
        if s.contains(',') || s.contains('"') {
            format!("\"{}\"", s.replace('"', "\"\""))
        } else {
            s.to_string()
        }
    };
    writeln!(
        f,
        "{}",
        headers.iter().map(|h| quote(h)).collect::<Vec<_>>().join(",")
    )?;
    for r in rows {
        writeln!(
            f,
            "{}",
            r.iter().map(|c| quote(c)).collect::<Vec<_>>().join(",")
        )?;
    }
    Ok(())
}

/// Format a float with `d` decimals.
pub fn f(v: f64, d: usize) -> String {
    format!("{v:.d$}")
}

/// Format seconds in engineering units.
pub fn secs(v: f64) -> String {
    if v >= 1.0 {
        format!("{v:.2} s")
    } else if v >= 1e-3 {
        format!("{:.2} ms", v * 1e3)
    } else {
        format!("{:.1} us", v * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatters() {
        assert_eq!(f(1.23456, 2), "1.23");
        assert_eq!(secs(2.5), "2.50 s");
        assert_eq!(secs(2.5e-3), "2.50 ms");
        assert_eq!(secs(2.5e-5), "25.0 us");
    }

    #[test]
    fn render_table_smoke() {
        render_table(
            "t",
            &["a", "b"],
            &[vec!["1".into(), "2".into()], vec!["10".into(), "20".into()]],
        );
    }

    #[test]
    fn paper_features_option_uses_table2() {
        let opts = Options {
            class: Class::Test,
            quick: true,
            paper_features: true,
        };
        let m = experiment_features(&opts, &PipelineConfig::fast());
        assert_eq!(m.len(), 14);
    }
}

#[cfg(test)]
mod csv_tests {
    use super::*;

    #[test]
    fn csv_export_writes_slugged_file() {
        let dir = std::env::temp_dir().join("fgbs_csv_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::env::set_var("FGBS_CSV_DIR", &dir);
        render_table(
            "Figure 99 — smoke, test",
            &["a", "b"],
            &[vec!["1,5".into(), "x\"y".into()]],
        );
        std::env::remove_var("FGBS_CSV_DIR");
        let path = dir.join("figure_99_smoke_test.csv");
        let body = std::fs::read_to_string(&path).expect("csv written");
        assert!(body.starts_with("a,b\n"));
        assert!(body.contains("\"1,5\""));
        assert!(body.contains("\"x\"\"y\""));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
